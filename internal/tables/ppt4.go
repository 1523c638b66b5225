package tables

import (
	"fmt"
	"math"
	"slices"

	"cedar/internal/bench"
	"cedar/internal/comparator"
	"cedar/internal/ppt"
)

// PPT4Point is one (P, N) measurement of the scalability study.
type PPT4Point struct {
	P      int
	N      int
	MFLOPS float64
	Eff    float64
	Band   ppt.Band
}

// PPT4Result holds the §4.3 code/architecture scalability study: the
// conjugate gradient solver on Cedar with 2-32 processors and problem
// sizes up to 172K, against the CM-5 banded matrix-vector products at
// 32/256/512 nodes. The paper's reading: Cedar is scalable with high
// performance for matrices larger than roughly 10-16K and intermediate
// below; the 32-processor Cedar delivers 34-48 MFLOPS over 10K ≤ N ≤
// 172K; the CM-5 never reaches the high band and delivers 28-32 (BW=3)
// and 58-67 (BW=11) MFLOPS on 32 nodes.
type PPT4Result struct {
	Cedar []PPT4Point
	CM5   map[int][]PPT4Point // bandwidth -> points
	// CedarBanded runs [FWPS92]'s own kernel on Cedar for the paper's
	// "per-processor MFLOPS of the two systems are roughly equivalent"
	// remark.
	CedarBanded map[int][]PPT4Point
}

// ppt4Iters is enough CG iterations to amortize startup.
const ppt4Iters = 3

// ppt4Points is the CG sweep, then the banded one. The efficiency
// baseline is a single CE running the same kernel; baseline and sweep
// runs are all independent simulations, so every (n, p) pair — the p = 1
// baseline first for each n — is one point, and the efficiencies are
// derived after reassembly.
func ppt4Points(env Env, s Sizes) []point {
	ns := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	if s.FullPPT4 {
		ns = append(ns, 172<<10)
	}
	var pts []point
	for _, n := range ns {
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			pts = append(pts, env.point(fmt.Sprintf("ppt4/cg/n%d/p%d", n, p), bench.MachineSpec{},
				bench.WorkloadSpec{Kind: "cg", N: n, Iters: ppt4Iters, MaxCEs: p}))
		}
	}
	// Banded matvec on Cedar itself, 32 CEs, the CM-5 problem range.
	for _, bw := range []int{3, 11} {
		for _, n := range []int{16 << 10, 64 << 10} {
			pts = append(pts, env.point(fmt.Sprintf("ppt4/banded/bw%d/n%d", bw, n), bench.MachineSpec{},
				bench.WorkloadSpec{Kind: "banded", N: n, BW: bw}))
		}
	}
	return pts
}

func ppt4Table(_ Sizes, pts []point, outs []bench.PointOutcome) Result {
	res := &PPT4Result{CM5: map[int][]PPT4Point{}, CedarBanded: map[int][]PPT4Point{}}
	var base bench.PointOutcome
	for i, out := range outs {
		switch w := pts[i].Workload; {
		case w.Kind == "banded":
			res.CedarBanded[w.BW] = append(res.CedarBanded[w.BW], PPT4Point{P: 32, N: w.N, MFLOPS: out.MFLOPS})
		case w.MaxCEs == 1:
			base = out
		default:
			eff := ppt.Efficiency(base.Seconds/out.Seconds, w.MaxCEs)
			res.Cedar = append(res.Cedar, PPT4Point{
				P: w.MaxCEs, N: w.N, MFLOPS: out.MFLOPS, Eff: eff,
				Band: ppt.BandOfEfficiency(eff, w.MaxCEs),
			})
		}
	}
	// The CM-5 comparator is analytic: closed-form evaluations, no machine.
	cm5 := comparator.NewCM5()
	for _, bw := range []int{3, 11} {
		for _, p := range []int{32, 256, 512} {
			for _, n := range []int{16 << 10, 64 << 10, 256 << 10} {
				eff := cm5.BandedEfficiency(n, bw, p)
				res.CM5[bw] = append(res.CM5[bw], PPT4Point{
					P: p, N: n, MFLOPS: cm5.BandedMFLOPS(n, bw, p),
					Eff: eff, Band: ppt.BandOfEfficiency(eff, p),
				})
			}
		}
	}
	return res
}

// Cedar32Range returns the min and max 32-CE MFLOPS over N ≥ 10K (the
// paper: 34 to 48).
func (r *PPT4Result) Cedar32Range() (lo, hi float64) {
	lo, hi = 1e18, 0
	for _, pt := range r.Cedar {
		if pt.P == 32 && pt.N >= 10<<10 {
			if pt.MFLOPS < lo {
				lo = pt.MFLOPS
			}
			if pt.MFLOPS > hi {
				hi = pt.MFLOPS
			}
		}
	}
	return
}

// Format renders both halves of the study.
func (r *PPT4Result) Format() string {
	header := []string{"P", "N", "MFLOPS", "eff", "band"}
	var rows [][]string
	for _, pt := range r.Cedar {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.P), fmt.Sprintf("%d", pt.N),
			fmt.Sprintf("%.1f", pt.MFLOPS), fmt.Sprintf("%.2f", pt.Eff),
			pt.Band.String(),
		})
	}
	s := "Cedar CG scalability (paper: high band for N above ≈10-16K; 34-48 MFLOPS at 32 CEs)\n"
	s += formatTable(header, rows)
	lo, hi := r.Cedar32Range()
	s += fmt.Sprintf("32-CE CG range over N ≥ 10K: %.1f - %.1f MFLOPS (paper: 34 - 48)\n\n", lo, hi)
	for _, bw := range []int{3, 11} {
		s += fmt.Sprintf("CM-5 banded matvec BW=%d (paper 32 nodes: %s MFLOPS; never high band)\n",
			bw, map[int]string{3: "28-32", 11: "58-67"}[bw])
		rows = rows[:0]
		for _, pt := range r.CM5[bw] {
			rows = append(rows, []string{
				fmt.Sprintf("%d", pt.P), fmt.Sprintf("%d", pt.N),
				fmt.Sprintf("%.1f", pt.MFLOPS), fmt.Sprintf("%.2f", pt.Eff),
				pt.Band.String(),
			})
		}
		s += formatTable(header, rows) + "\n"
	}
	s += "banded matvec on Cedar itself (32 CEs; the paper: per-processor rates of the two systems are roughly equivalent)\n"
	rows = rows[:0]
	for _, bw := range []int{3, 11} {
		for _, pt := range r.CedarBanded[bw] {
			rows = append(rows, []string{
				fmt.Sprintf("%d", pt.P), fmt.Sprintf("%d", pt.N),
				fmt.Sprintf("%.1f", pt.MFLOPS),
				fmt.Sprintf("BW=%d", bw), "",
			})
		}
	}
	s += formatTable(header, rows)
	return s
}

// ppt4Claims: the CM-5 is scalable intermediate, never high (comparator's
// tests pin its 32-node rates); Cedar's CG is high at every processor
// count from a knee at 64K, not the paper's 10–16K (known deviation 4).
var ppt4Claims = []claim{
	{id: "CM-5 band at every BW, P and N", kind: inBand, paper: float64(ppt.Intermediate),
		value: of(func(r *PPT4Result) []float64 {
			return collect(slices.Concat(r.CM5[3], r.CM5[11]), func(p PPT4Point) float64 { return float64(p.Band) })
		})},
	claim{id: "CG high-band knee, N in K words", kind: within, paper: 13, tol: 3,
		value: one(func(r *PPT4Result) float64 {
			low, knee := 0, math.Inf(1) // in N order: last N with a point below High, first N after it
			for _, pt := range r.Cedar {
				if pt.Band != ppt.High {
					low, knee = pt.N, math.Inf(1)
				} else if pt.N > low && math.IsInf(knee, 1) {
					knee = float64(pt.N >> 10)
				}
			}
			return knee
		})}.deviates(64, "the CG proxy is High from 64K, not 10–16K: known deviation 4"),
}

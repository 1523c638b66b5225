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
// and 58-67 (BW=11) MFLOPS on 32 nodes; per processor, the two are
// roughly equivalent.
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

// Format renders both halves of the study.
func (r *PPT4Result) Format() string {
	header := []string{"P", "N", "MFLOPS", "eff", "band"}
	row := func(pt PPT4Point, eff, band string) []string {
		return []string{fmt.Sprintf("%d", pt.P), fmt.Sprintf("%d", pt.N), fmt.Sprintf("%.1f", pt.MFLOPS), eff, band}
	}
	sweep := func(pts []PPT4Point) string {
		var rows [][]string
		for _, pt := range pts {
			rows = append(rows, row(pt, fmt.Sprintf("%.2f", pt.Eff), pt.Band.String()))
		}
		return formatTable(header, rows) + "\n"
	}
	s := "Cedar CG scalability\n" + sweep(r.Cedar)
	var rows [][]string
	for _, bw := range []int{3, 11} {
		s += fmt.Sprintf("CM-5 banded matvec BW=%d\n", bw) + sweep(r.CM5[bw])
		for _, pt := range r.CedarBanded[bw] {
			rows = append(rows, row(pt, fmt.Sprintf("BW=%d", bw), ""))
		}
	}
	return s + "banded matvec on Cedar itself (32 CEs)\n" + formatTable(header, rows)
}

// ppt4Claims: the CM-5 is scalable intermediate, never high, inside the
// paper's 32-node windows; Cedar's CG is high at every processor count
// from a knee at 64K, not the paper's 10–16K (known deviation 4); Cedar's
// 32-CE kernels run about twice the paper's rates (known deviation 6).
var ppt4Claims = []claim{
	{id: "CM-5 band at every BW, P and N", kind: inBand, paper: float64(ppt.Intermediate),
		value: of(func(r *PPT4Result) []float64 {
			return collect(slices.Concat(r.CM5[3], r.CM5[11]), func(p PPT4Point) float64 { return float64(p.Band) })
		})},
	{id: "CM-5 32-node MFLOPS, BW=3", kind: within, paper: 30, tol: 2, // 28–32
		value: of(func(r *PPT4Result) []float64 { return mflopsAt32(r.CM5[3], 0) })},
	{id: "CM-5 32-node MFLOPS, BW=11", kind: within, paper: 62.5, tol: 4.5, // 58–67
		value: of(func(r *PPT4Result) []float64 { return mflopsAt32(r.CM5[11], 0) })},
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
	claim{id: "32-CE CG MFLOPS, N ≥ 10K", kind: within, paper: 41, tol: 7, // 34–48
		value: of(func(r *PPT4Result) []float64 { return mflopsAt32(r.Cedar, 10<<10) })}.deviates(75.2, "the CG proxy runs ≈2× the real code's rate: known deviation 6"),
	// "Roughly equivalent" per-processor rates: within ±25%. Both sides
	// have 32 processors, so the ratio of rates is the per-processor one.
	claim{id: "Cedar over CM-5 per-processor MFLOPS @32, banded", kind: within, paper: 1, tol: 0.25,
		value: of(func(r *PPT4Result) []float64 {
			var ratios []float64
			for _, bw := range []int{3, 11} {
				for _, c := range r.CedarBanded[bw] {
					cm5 := r.CM5[bw][slices.IndexFunc(r.CM5[bw], func(p PPT4Point) bool { return p.P == 32 && p.N == c.N })]
					ratios = append(ratios, c.MFLOPS/cm5.MFLOPS)
				}
			}
			return ratios
		})}.deviates(1.75, "Cedar's banded kernel is fast like the CG proxy: known deviation 6"),
}

// mflopsAt32 lists the rates of pts' 32-processor points with N ≥ minN.
func mflopsAt32(pts []PPT4Point, minN int) []float64 {
	pts = slices.DeleteFunc(slices.Clone(pts), func(p PPT4Point) bool { return p.P != 32 || p.N < minN })
	return collect(pts, func(p PPT4Point) float64 { return p.MFLOPS })
}

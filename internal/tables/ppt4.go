package tables

import (
	"fmt"

	"cedar/internal/comparator"
	"cedar/internal/core"
	"cedar/internal/fleet"
	"cedar/internal/kernels"
	"cedar/internal/ppt"
	"cedar/internal/scope"
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

// RunPPT4 executes the study. full selects the paper's largest sizes;
// otherwise a reduced sweep with the same structure runs.
func RunPPT4(env Env, full bool) (*PPT4Result, error) {
	ns := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	if full {
		ns = append(ns, 172<<10)
	}
	ps := []int{2, 4, 8, 16, 32}
	res := &PPT4Result{CM5: map[int][]PPT4Point{}, CedarBanded: map[int][]PPT4Point{}}
	pm := env.Machine()

	// Per-processor-count baselines come from the 2-CE run scaled down;
	// the efficiency baseline is a single CE running the same kernel. The
	// baseline and sweep runs are all independent simulations, so every
	// (n, p) pair — p = 1 baselines included — is one pool job, and the
	// efficiencies are derived after reassembly.
	type cgPoint struct{ n, p int }
	var cgPoints []cgPoint
	for _, n := range ns {
		cgPoints = append(cgPoints, cgPoint{n, 1})
		for _, p := range ps {
			cgPoints = append(cgPoints, cgPoint{n, p})
		}
	}
	cgOuts, err := sweep(env, cgPoints,
		func(pt cgPoint) build { return env.at(fmt.Sprintf("ppt4/cg/n%d/p%d", pt.n, pt.p), pm) },
		func(pt cgPoint, m *core.Machine) (core.Result, error) {
			out, err := kernels.CG(m, kernels.CGConfig{N: pt.n, Iters: ppt4Iters, MaxCEs: pt.p})
			return out.Result, err
		})
	if err != nil {
		return nil, err
	}
	i := 0
	for range ns {
		base := cgOuts[i]
		i++
		for _, p := range ps {
			out := cgOuts[i]
			pt := cgPoints[i]
			i++
			eff := ppt.Efficiency(base.Seconds/out.Seconds, p)
			res.Cedar = append(res.Cedar, PPT4Point{
				P: p, N: pt.n, MFLOPS: out.MFLOPS, Eff: eff,
				Band: ppt.BandOfEfficiency(eff, p),
			})
		}
	}

	// Banded matvec on Cedar itself, 32 CEs, the CM-5 problem range.
	type bandedPoint struct{ bw, n int }
	var bandedPoints []bandedPoint
	for _, bw := range []int{3, 11} {
		for _, n := range []int{16 << 10, 64 << 10} {
			bandedPoints = append(bandedPoints, bandedPoint{bw: bw, n: n})
		}
	}
	bandedOuts, err := sweep(env, bandedPoints,
		func(pt bandedPoint) build { return env.at(fmt.Sprintf("ppt4/banded/bw%d/n%d", pt.bw, pt.n), pm) },
		func(pt bandedPoint, m *core.Machine) (float64, error) {
			out, err := kernels.Banded(m, kernels.BandedConfig{N: pt.n, BW: pt.bw})
			return out.MFLOPS, err
		})
	if err != nil {
		return nil, err
	}
	for i, pt := range bandedPoints {
		res.CedarBanded[pt.bw] = append(res.CedarBanded[pt.bw], PPT4Point{
			P: 32, N: pt.n, MFLOPS: bandedOuts[i],
		})
	}

	// The CM-5 comparator sweep: analytic, but still a set of independent
	// machine evaluations, dispatched like the simulated ones. It builds
	// no Cedar, so it is the one sweep that does not go through the sweep
	// helper.
	type cm5Point struct{ bw, p, n int }
	var cm5Points []cm5Point
	for _, bw := range []int{3, 11} {
		for _, p := range []int{32, 256, 512} {
			for _, n := range []int{16 << 10, 64 << 10, 256 << 10} {
				cm5Points = append(cm5Points, cm5Point{bw: bw, p: p, n: n})
			}
		}
	}
	cm5Jobs := make([]fleet.Job[PPT4Point], len(cm5Points))
	for i, pt := range cm5Points {
		cm5Jobs[i] = fleet.Job[PPT4Point]{
			Run: func(*scope.Hub) (PPT4Point, error) {
				mflops, eff := comparator.NewCM5().BandedPoint(pt.n, pt.bw, pt.p)
				return PPT4Point{
					P: pt.p, N: pt.n, MFLOPS: mflops,
					Eff: eff, Band: ppt.BandOfEfficiency(eff, pt.p),
				}, nil
			},
		}
	}
	cm5Outs, err := fleet.Run(env.fleet(), cm5Jobs)
	if err != nil {
		return nil, err
	}
	for i, pt := range cm5Points {
		res.CM5[pt.bw] = append(res.CM5[pt.bw], cm5Outs[i])
	}
	return res, nil
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

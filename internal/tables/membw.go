package tables

import (
	"fmt"

	"cedar/internal/bench"
	"cedar/internal/kernels"
	"cedar/internal/params"
)

// MemBWResult is the memory-system characterization study of [GJTV91],
// which the paper invokes to explain Table 1 ("consistent with the
// observed maximum bandwidth of memory system characterization
// benchmarks"): delivered aggregate bandwidth versus processor count and
// access stride.
type MemBWResult struct {
	Points []kernels.MemBWPoint
}

// memBWPoints is the sweep: CE counts across the machine, with unit
// stride (all modules), a half-modules power-of-two stride, and the
// full-conflict stride that serializes every reference on one module.
func memBWPoints(env Env, s Sizes) []point {
	modules := env.Machine().MemModules
	var pts []point
	for _, nCE := range []int{1, 2, 4, 8, 16, 32} {
		for _, stride := range []int{1, 2, modules} {
			pts = append(pts, env.point(fmt.Sprintf("membw/%dce/stride%d", nCE, stride), bench.MachineSpec{},
				bench.WorkloadSpec{Kind: "membw", N: s.MemBWWords, CEs: nCE, Stride: stride}))
		}
	}
	return pts
}

// memBWTable restates each point's cycle count as delivered bandwidth,
// through the derivation kernels.MemBW uses.
func memBWTable(_ Sizes, pts []point, outs []bench.PointOutcome) Result {
	res := &MemBWResult{}
	for i, out := range outs {
		w := pts[i].Workload
		res.Points = append(res.Points, kernels.NewMemBWPoint(w.CEs, int64(w.Stride), w.N, out.Cycles))
	}
	return res
}

// PeakMBps returns the best observed aggregate bandwidth.
func (r *MemBWResult) PeakMBps() float64 {
	best := 0.0
	for _, pt := range r.Points {
		if pt.MBps > best {
			best = pt.MBps
		}
	}
	return best
}

// Format renders the characterization.
func (r *MemBWResult) Format() string {
	header := []string{"CEs", "stride", "words/cycle", "MB/s"}
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.CEs),
			fmt.Sprintf("%d", pt.Stride),
			fmt.Sprintf("%.2f", pt.WordsPerCycle),
			fmt.Sprintf("%.0f", pt.MBps),
		})
	}
	s := "memory system characterization [GJTV91]\n"
	s += formatTable(header, rows)
	s += fmt.Sprintf("observed peak %.0f MB/s (wiring peak %.0f MB/s; the companion study sustained ≈500)\n", r.PeakMBps(), params.WiringPeakMBps)
	return s
}

// memBWClaims: unit-stride streams saturate near the ≈500 MB/s the
// companion study observed, well below the 768 MB/s wiring peak.
var memBWClaims = []claim{
	{id: "observed peak MB/s", kind: within, paper: 500, tol: 75, needs: Sizes{MemBWWords: 2048},
		value: one((*MemBWResult).PeakMBps)},
}

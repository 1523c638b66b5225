package tables

import (
	"fmt"

	"cedar/internal/core"
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

// RunMemBW executes the sweep: CE counts across the machine, with unit
// stride (all modules), a half-modules power-of-two stride, and the
// full-conflict stride that serializes every reference on one module.
func RunMemBW(env Env, wordsPerCE int) (*MemBWResult, error) {
	p := env.Machine()
	type point struct {
		nCE    int
		stride int64
	}
	var points []point
	for _, nCE := range []int{1, 2, 4, 8, 16, 32} {
		for _, stride := range []int64{1, 2, int64(p.MemModules)} {
			points = append(points, point{nCE: nCE, stride: stride})
		}
	}
	outs, err := sweep(env, points,
		func(pt point) build { return env.at(fmt.Sprintf("membw/%dce/stride%d", pt.nCE, pt.stride), p) },
		func(pt point, m *core.Machine) (kernels.MemBWPoint, error) {
			return kernels.MemBW(m, pt.nCE, pt.stride, wordsPerCE)
		})
	if err != nil {
		return nil, err
	}
	return &MemBWResult{Points: outs}, nil
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

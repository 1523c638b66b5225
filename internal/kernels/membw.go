package kernels

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/params"
)

// MemBWPoint is one measurement of the memory characterization study.
type MemBWPoint struct {
	CEs        int
	Stride     int64
	WordsPerCE int
	Cycles     int64
	// WordsPerCycle is the aggregate delivered bandwidth.
	WordsPerCycle float64
	// MBps converts it to the paper's units (8-byte words at 170 ns).
	MBps float64
}

// MemBW runs the memory-system characterization of [GJTV91]: every
// participating CE streams prefetched loads from global memory and the
// aggregate delivered bandwidth is measured. Unit stride exercises all
// modules; stride = MemModules aims every reference of every CE at a
// single module (the worst-case conflict the paper's stride analysis
// covers); intermediate power-of-two strides hit a subset of modules.
//
// The paper quotes a 768 MB/s wiring peak; the characterization study
// observed roughly 500 MB/s sustained, which is the number this model is
// calibrated to reproduce (see params.Machine.MemService).
func MemBW(m *core.Machine, nCE int, stride int64, wordsPerCE int) (MemBWPoint, error) {
	if nCE < 1 || nCE > len(m.CEs) {
		return MemBWPoint{}, fmt.Errorf("kernels: %d CEs outside 1..%d", nCE, len(m.CEs))
	}
	if wordsPerCE < 1 {
		return MemBWPoint{}, fmt.Errorf("kernels: need at least one word per CE")
	}
	// Each CE walks its own region. For conflict strides every region
	// starts on the same module (aligned base), maximizing collisions,
	// as the characterization kernels did.
	span := uint64(int64(wordsPerCE) * stride)
	align := m.P.MemModules
	bases := make([]uint64, nCE)
	for i := range bases {
		bases[i] = m.AllocGlobalAligned(int(span)+align, align)
	}
	prog := ce.NewGenerator(nCE, 1, func(ceID, _ int, in *ce.Instr) {
		*in = ce.Instr{
			Op: ce.OpVector, N: wordsPerCE, Flops: 0,
			Srcs: []ce.Stream{{
				Space: ce.SpaceGlobal, Base: bases[ceID], Stride: stride,
				PrefBlock: 256,
			}},
		}
	})
	res, err := m.RunOn(m.CEs[:nCE], prog, 1<<40)
	if err != nil {
		return MemBWPoint{}, err
	}
	words := int64(nCE * wordsPerCE)
	wpc := float64(words) / float64(res.Cycles)
	return MemBWPoint{
		CEs: nCE, Stride: stride, WordsPerCE: wordsPerCE,
		Cycles:        res.Cycles,
		WordsPerCycle: wpc,
		MBps:          wpc * params.WordBytes * params.CyclesPerSecond / 1e6,
	}, nil
}

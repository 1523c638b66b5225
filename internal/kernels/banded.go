package kernels

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
)

// BandedConfig configures the banded matrix-vector product — the kernel
// [FWPS92] measured on the CM-5 for the paper's PPT4 comparison. Running
// the same computation on the simulated Cedar puts both machines on one
// axis: the paper compares CG-on-Cedar with banded-matvec-on-CM-5 and
// notes their per-processor rates are "roughly equivalent"; this kernel
// lets the comparison be made kernel-for-kernel as well.
type BandedConfig struct {
	N  int // matrix order
	BW int // total bandwidth (diagonal count): 3 or 11 in the paper
	// MaxCEs restricts the processor count; 0 = all.
	MaxCEs int
}

// Banded computes y = A·x for a banded A of order N with BW diagonals:
// 2·BW−1 flops per row. Rows are partitioned across CEs; each diagonal is
// a chained multiply-add sweep streaming from global memory through the
// prefetch units, with x loaded once into registers per partition.
func Banded(m *core.Machine, cfg BandedConfig) (Result, error) {
	if cfg.BW < 1 || cfg.BW%2 == 0 {
		return Result{}, fmt.Errorf("kernels: bandwidth %d must be odd and positive", cfg.BW)
	}
	if cfg.N < cfg.BW {
		return Result{}, fmt.Errorf("kernels: order %d smaller than bandwidth %d", cfg.N, cfg.BW)
	}
	n := cfg.N
	diags := make([]uint64, cfg.BW)
	for i := range diags {
		diags[i] = m.AllocGlobalAligned(n, 64)
	}
	xBase := m.AllocGlobalAligned(n, 64)
	yBase := m.AllocGlobalAligned(n, 64)

	p := len(m.CEs)
	if cfg.MaxCEs > 0 && cfg.MaxCEs < p {
		p = cfg.MaxCEs
	}

	body := func(part int, q []ce.Instr) []ce.Instr {
		lo := part * n / p
		cnt := (part+1)*n/p - lo
		if cnt <= 0 {
			return q
		}
		off := uint64(lo)
		// x into registers (the halo is covered by the partition overlap
		// in the register file).
		q = append(q, ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0,
			Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: xBase + off, Stride: 1, PrefBlock: 32}}})
		for d := 0; d < cfg.BW; d++ {
			flops := int64(2)
			if d == cfg.BW-1 {
				flops = 1 // final sweep carries the last register add
			}
			q = append(q, ce.Instr{
				Op: ce.OpVector, N: cnt, Flops: flops,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: diags[d] + off, Stride: 1, PrefBlock: 32}},
			})
		}
		return append(q, ce.Instr{
			Op: ce.OpVector, N: cnt, Flops: 0,
			Dst: &ce.Stream{Space: ce.SpaceGlobal, Base: yBase + off, Stride: 1},
		})
	}
	return run(m, cfrt.Config{UseCedarSync: true, MaxCEs: cfg.MaxCEs}, 1<<40,
		cfrt.XDoall{N: p, Static: true, Body: body})
}

// BandedFlopsCedar returns the nominal flop count (2·BW−1 per row).
func BandedFlopsCedar(cfg BandedConfig) int64 {
	return int64(cfg.N) * int64(2*cfg.BW-1)
}

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

	// Part part's streams, built once: x and then each diagonal at
	// srcs[w·part:] (w = BW+1), y at ys[part]. x goes into registers (the
	// halo is covered by the partition overlap in the register file).
	w := cfg.BW + 1
	srcs := make([]ce.Stream, w*p)
	ys := make([]ce.Stream, p)
	for part := range ys {
		off := uint64(part * n / p)
		srcs[w*part] = ce.Stream{Space: ce.SpaceGlobal, Base: xBase + off, Stride: 1, PrefBlock: 32}
		for d, base := range diags {
			srcs[w*part+1+d] = ce.Stream{Space: ce.SpaceGlobal, Base: base + off, Stride: 1, PrefBlock: 32}
		}
		ys[part] = ce.Stream{Space: ce.SpaceGlobal, Base: yBase + off, Stride: 1}
	}
	// Instruction 0 loads x, instruction 1+d is diagonal d's chained
	// multiply-add sweep, and the last stores y.
	body := func(part, k int, in *ce.Instr) bool {
		cnt := (part+1)*n/p - part*n/p
		if cnt <= 0 || k > w {
			return false
		}
		in.Op, in.N = ce.OpVector, cnt
		switch s := w*part + k; {
		case k == 0:
			in.Srcs = srcs[s : s+1 : s+1]
		case k < w:
			in.Flops = 2
			if k == w-1 {
				in.Flops = 1 // final sweep carries the last register add
			}
			in.Srcs = srcs[s : s+1 : s+1]
		default:
			in.Dst = &ys[part]
		}
		return true
	}
	return run(m, cfrt.Config{UseCedarSync: true, MaxCEs: cfg.MaxCEs}, 1<<40,
		cfrt.XDoall{N: p, Sched: cfrt.StaticSchedule, Body: body})
}

// BandedFlopsCedar returns the nominal flop count (2·BW−1 per row).
func BandedFlopsCedar(cfg BandedConfig) int64 {
	return int64(cfg.N) * int64(2*cfg.BW-1)
}

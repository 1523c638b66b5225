package kernels

import (
	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/network"
)

// CGConfig configures the conjugate gradient kernel.
type CGConfig struct {
	N     int // vector length (paper: 1K ≤ N ≤ 172K)
	Iters int // CG iterations to run
	// MaxCEs restricts the processor count (paper: 2..32); 0 = all.
	MaxCEs int
}

// CG runs a simple conjugate gradient solver on a 5-diagonal system of
// order N (§4.3, the PPT4 scalability study). Each iteration performs the
// 5-diagonal matrix-vector product, two reduction dot products through the
// synchronization processors, and the vector updates; multicluster
// barriers separate the reduction from the updates.
//
// Flops per iteration ≈ 19·N: 9 in the matvec, 4 in the dots, 6 in the
// AXPY updates.
func CG(m *core.Machine, cfg CGConfig) (Result, error) {
	n := cfg.N
	diag := make([]uint64, 5)
	for i := range diag {
		diag[i] = m.AllocGlobalAligned(n, 64)
	}
	pBase := m.AllocGlobalAligned(n, 64)
	qBase := m.AllocGlobalAligned(n, 64)
	xBase := m.AllocGlobalAligned(n, 64)
	rBase := m.AllocGlobalAligned(n, 64)
	accum := m.AllocGlobal(2)

	p := len(m.CEs)
	if cfg.MaxCEs > 0 && cfg.MaxCEs < p {
		p = cfg.MaxCEs
	}

	part := func(i int) (lo, cnt int) {
		lo = i * n / p
		return lo, (i+1)*n/p - lo
	}
	// Part i's streams, built once: a prefetched source of each vector the
	// bodies read at srcs[cgSrcs·i:], and the stores of q, x, r and p at
	// dsts[4·i:].
	srcs := make([]ce.Stream, cgSrcs*p)
	dsts := make([]ce.Stream, 4*p)
	for i := 0; i < p; i++ {
		lo, _ := part(i)
		for s, base := range [cgSrcs]uint64{pBase, diag[0], diag[1], diag[2], diag[3], diag[4], xBase, qBase, rBase} {
			srcs[cgSrcs*i+s] = ce.Stream{Space: ce.SpaceGlobal, Base: base + uint64(lo), Stride: 1, PrefBlock: 32}
		}
		for s, base := range [4]uint64{qBase, xBase, rBase, pBase} {
			dsts[4*i+s] = ce.Stream{Space: ce.SpaceGlobal, Base: base + uint64(lo), Stride: 1}
		}
	}
	src := func(i, s int) []ce.Stream {
		at := cgSrcs*i + int(s)
		return srcs[at : at+1 : at+1]
	}

	// Phase A: q = A·p (5-diagonal), then partial dot p·q accumulated on
	// the synchronization processor.
	matvecBody := func(i, k int, in *ce.Instr) bool {
		_, cnt := part(i)
		if cnt <= 0 {
			return false
		}
		switch {
		case k == 0:
			// Load p into registers.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0, Srcs: src(i, cgP)}
		case k <= 5:
			// Five diagonal sweeps: multiply-add chains; the last carries
			// the final register-register adds.
			flops := [5]int64{2, 2, 2, 2, 1}
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: flops[k-1], Srcs: src(i, cgDiag0+k-1)}
		case k == 6:
			// Store the product vector.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0, Dst: &dsts[4*i]}
		case k == 7:
			// Local part of the dot product: the vector is still flowing
			// through registers.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2}
		case k == 8:
			// Accumulate the partial sum at the memory module.
			*in = ce.Instr{Op: ce.OpSync, Addr: accum,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1}
		default:
			return false
		}
		return true
	}

	// Phase B: x += αp, r -= αq, r·r reduction, p = r + βp.
	updateBody := func(i, k int, in *ce.Instr) bool {
		_, cnt := part(i)
		if cnt <= 0 {
			return false
		}
		switch k {
		case 0:
			// x update: load x, AXPY with p (registers), store x.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2, Srcs: src(i, cgX), Dst: &dsts[4*i+1]}
		case 1:
			// r update: load r and q.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0, Srcs: src(i, cgQ)}
		case 2:
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2, Srcs: src(i, cgR), Dst: &dsts[4*i+2]}
		case 3:
			// r·r: register-register.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2}
		case 4:
			*in = ce.Instr{Op: ce.OpSync, Addr: accum + 1,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1}
		case 5:
			// p = r + βp, store p.
			*in = ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2, Dst: &dsts[4*i+3]}
		default:
			return false
		}
		return true
	}

	var phases []cfrt.Phase
	for it := 0; it < cfg.Iters; it++ {
		phases = append(phases,
			cfrt.XDoall{N: p, Sched: cfrt.StaticSchedule, Body: matvecBody},
			cfrt.XDoall{N: p, Sched: cfrt.StaticSchedule, Body: updateBody},
		)
	}
	return run(m, cfrt.Config{UseCedarSync: true, MaxCEs: cfg.MaxCEs}, 1<<40, phases...)
}

// The source streams of a CG part, in slab order: p, the five diagonals,
// x, q and r.
const (
	cgP = iota
	cgDiag0
	cgX = iota + 4
	cgQ
	cgR
	cgSrcs
)

// CGFlops returns the nominal flop count of a CG run, for rate checks.
func CGFlops(cfg CGConfig) int64 {
	return int64(cfg.Iters) * int64(cfg.N) * 19
}

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
	gstream := func(base uint64, lo int) ce.Stream {
		return ce.Stream{Space: ce.SpaceGlobal, Base: base + uint64(lo), Stride: 1, PrefBlock: 32}
	}

	// Phase A: q = A·p (5-diagonal), then partial dot p·q accumulated on
	// the synchronization processor.
	matvecBody := func(i int, q []ce.Instr) []ce.Instr {
		lo, cnt := part(i)
		if cnt <= 0 {
			return q
		}
		// Load p into registers.
		q = append(q, ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0, Srcs: []ce.Stream{gstream(pBase, lo)}})
		// Five diagonal sweeps: multiply-add chains; the last carries the
		// final register-register adds.
		flops := [5]int64{2, 2, 2, 2, 1}
		for d, f := range flops {
			q = append(q, ce.Instr{
				Op: ce.OpVector, N: cnt, Flops: f,
				Srcs: []ce.Stream{gstream(diag[d], lo)},
			})
		}
		return append(q,
			// Store the product vector.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0,
				Dst: &ce.Stream{Space: ce.SpaceGlobal, Base: qBase + uint64(lo), Stride: 1}},
			// Local part of the dot product: the vector is still flowing
			// through registers.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2},
			// Accumulate the partial sum at the memory module.
			ce.Instr{Op: ce.OpSync, Addr: accum,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1},
		)
	}

	// Phase B: x += αp, r -= αq, r·r reduction, p = r + βp.
	updateBody := func(i int, q []ce.Instr) []ce.Instr {
		lo, cnt := part(i)
		if cnt <= 0 {
			return q
		}
		return append(q,
			// x update: load x, AXPY with p (registers), store x.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2,
				Srcs: []ce.Stream{gstream(xBase, lo)},
				Dst:  &ce.Stream{Space: ce.SpaceGlobal, Base: xBase + uint64(lo), Stride: 1}},
			// r update: load r and q.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0, Srcs: []ce.Stream{gstream(qBase, lo)}},
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2,
				Srcs: []ce.Stream{gstream(rBase, lo)},
				Dst:  &ce.Stream{Space: ce.SpaceGlobal, Base: rBase + uint64(lo), Stride: 1}},
			// r·r: register-register.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2},
			ce.Instr{Op: ce.OpSync, Addr: accum + 1,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1},
			// p = r + βp, store p.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2,
				Dst: &ce.Stream{Space: ce.SpaceGlobal, Base: pBase + uint64(lo), Stride: 1}},
		)
	}

	var phases []cfrt.Phase
	for it := 0; it < cfg.Iters; it++ {
		phases = append(phases,
			cfrt.XDoall{N: p, Static: true, Body: matvecBody},
			cfrt.XDoall{N: p, Static: true, Body: updateBody},
		)
	}
	return run(m, cfrt.Config{UseCedarSync: true, MaxCEs: cfg.MaxCEs}, 1<<40, phases...)
}

// CGFlops returns the nominal flop count of a CG run, for rate checks.
func CGFlops(cfg CGConfig) int64 {
	return int64(cfg.Iters) * int64(cfg.N) * 19
}

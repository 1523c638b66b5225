package kernels

import (
	"slices"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/params"
)

// The §3.2 runtime-library probes and two design ablations: XDOALL
// startup, the iteration fetch, loop scheduling and the prefetch block
// size. None attaches CE 0's monitor: they read the machine's cycles.

// XDoallStartup measures XDOALL startup: the delay before any CE
// executes the first iteration of a freshly started machine-wide loop.
func XDoallStartup(m *core.Machine) (Result, error) {
	first := int64(-1)
	body := func(_ int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1, OnDone: func(cy int64) {
			if first < 0 {
				first = cy
			}
		}})
	}
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true}, cfrt.XDoall{N: 64, Body: body})
	_, err := rt.Run(100_000_000)
	return Result{Result: core.Result{Cycles: first, Seconds: params.CyclesToSeconds(first)}}, err
}

// LoopConfig is one XDOALL of the fetch-cost and scheduling probes.
type LoopConfig struct {
	// N is the iteration count.
	N int
	// MaxCEs restricts the participating CEs; 0 = all.
	MaxCEs int
	// Body is the iteration: EmptyBody, BalancedBody or ImbalancedBody.
	Body cfrt.BodyFn
	// Sched is the claim policy.
	Sched cfrt.Schedule
	// NoSync claims iterations through the library's lock path instead of
	// the Cedar synchronization instructions.
	NoSync bool
}

// Loop runs one XDOALL.
func Loop(m *core.Machine, cfg LoopConfig) (Result, error) {
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: !cfg.NoSync, MaxCEs: cfg.MaxCEs},
		cfrt.XDoall{N: cfg.N, Sched: cfg.Sched, Body: cfg.Body})
	res, err := rt.Run(1 << 40)
	return Result{Result: res}, err
}

// EmptyBody is one scalar cycle: a loop of it costs its fetches.
func EmptyBody(_ int, q []ce.Instr) []ce.Instr {
	return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1})
}

// BalancedBody is 60 cycles and 20 flops in every iteration.
func BalancedBody(_ int, q []ce.Instr) []ce.Instr {
	return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 60, Flops: 20})
}

// ImbalancedBody is 15 cycles an iteration but 2500 in iterations 480 on:
// the tail that static scheduling leaves on a few CEs.
func ImbalancedBody(i int, q []ce.Instr) []ce.Instr {
	cost := int64(15)
	if i >= 480 {
		cost = 2500
	}
	return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cost, Flops: 20})
}

// PanelSweep is the rank-64 update's panel traffic alone: n/8 statically
// scheduled iterations, each 64 multiply-add sweeps down the n×64 panel in
// global memory, prefetched in blocks of block words (0: no prefetch).
func PanelSweep(m *core.Machine, n, block int) (Result, error) {
	aBase := m.AllocGlobalAligned(n*rkRank, 64)
	body := func(j int, q []ce.Instr) []ce.Instr {
		q = slices.Grow(q, rkRank+1) // and the runtime's loop branch
		for k := 0; k < rkRank; k++ {
			q = append(q, ce.Instr{
				Op: ce.OpVector, N: n, Flops: 2,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: aBase + uint64(k*n), Stride: 1, PrefBlock: block}},
			})
		}
		return q
	}
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true},
		cfrt.XDoall{N: n / 8, Static: true, Body: body})
	res, err := rt.Run(1 << 40)
	return Result{Result: res}, err
}

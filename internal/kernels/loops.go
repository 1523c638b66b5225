package kernels

import (
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
	// One completion for every iteration: a body builds values, never
	// heap objects.
	done := func(_ int, _ int64, _ bool, cy int64) {
		if first < 0 {
			first = cy
		}
	}
	body := func(_, k int, in *ce.Instr) bool {
		if k > 0 {
			return false
		}
		in.Op, in.Cycles, in.Done = ce.OpScalar, 1, done
		return true
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
func EmptyBody(_, k int, in *ce.Instr) bool {
	if k > 0 {
		return false
	}
	in.Op, in.Cycles = ce.OpScalar, 1
	return true
}

// BalancedBody is 60 cycles and 20 flops in every iteration.
func BalancedBody(_, k int, in *ce.Instr) bool {
	if k > 0 {
		return false
	}
	in.Op, in.Cycles, in.Flops = ce.OpScalar, 60, 20
	return true
}

// ImbalancedBody is 15 cycles an iteration but 2500 in iterations 480 on:
// the tail that static scheduling leaves on a few CEs.
func ImbalancedBody(i, k int, in *ce.Instr) bool {
	if k > 0 {
		return false
	}
	in.Op, in.Cycles, in.Flops = ce.OpScalar, 15, 20
	if i >= 480 {
		in.Cycles = 2500
	}
	return true
}

// PanelSweep is the rank-64 update's panel traffic alone: n/8 statically
// scheduled iterations, each 64 multiply-add sweeps down the n×64 panel in
// global memory, prefetched in blocks of block words (0: no prefetch).
func PanelSweep(m *core.Machine, n, block int) (Result, error) {
	panel := panelStreams(ce.SpaceGlobal, m.AllocGlobalAligned(n*rkRank, 64), n, block)
	body := func(_, k int, in *ce.Instr) bool {
		if k >= rkRank {
			return false
		}
		in.Op, in.N, in.Flops, in.Srcs = ce.OpVector, n, 2, panel[k:k+1:k+1]
		return true
	}
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true},
		cfrt.XDoall{N: n / 8, Sched: cfrt.StaticSchedule, Body: body})
	res, err := rt.Run(1 << 40)
	return Result{Result: res}, err
}

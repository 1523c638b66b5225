package core

import (
	"testing"

	"cedar/internal/ce"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// TestAttributionConservation pins the conservation law: for every
// component class, busy + stall + idle must equal the class's elapsed
// component-cycles exactly. The pre-event-wheel attribution mixed event
// counters (hits, claims, refusals) into per-cycle buckets, which let
// busy+stall exceed elapsed under load; the disjoint per-cycle
// classification counters make the sum an invariant.
func TestAttributionConservation(t *testing.T) {
	p := params.Default()
	hub := scope.NewHub()
	m := MustNew(p, Options{Scope: hub})

	// A program touching every attributed class: global vector traffic
	// (gmem, network), prefetched and plain streams (PFU), cluster cache
	// loads and stores (cache, cmem), synchronization (gmem sync
	// processors), and a fence.
	gbase := m.AllocGlobal(4096)
	lbase := m.Clusters[0].AllocLocal(512)
	prog := &ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpScalar, Cycles: 20, Flops: 10},
		{Op: ce.OpVector, N: 256, Flops: 1,
			Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: gbase, Stride: 1, PrefBlock: 128}},
			Dst:  &ce.Stream{Space: ce.SpaceGlobal, Base: gbase + 1024, Stride: 1}},
		{Op: ce.OpClusterStore, Addr: lbase, Value: 7},
		{Op: ce.OpClusterLoad, Addr: lbase},
		{Op: ce.OpVector, N: 64, Flops: 1,
			Srcs: []ce.Stream{{Space: ce.SpaceCluster, Base: lbase, Stride: 1}}},
		{Op: ce.OpSync, Addr: gbase + 4000},
		{Op: ce.OpGlobalStore, Addr: gbase + 2048, Value: 3},
		{Op: ce.OpFence},
	}}
	if _, err := m.RunOn(m.CEs[:8], prog, 2_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Drive the concurrency bus directly (instructions do not reach it),
	// including a transaction booked past the end of the run so the
	// ccbus busy clamp is exercised.
	bus := &m.Clusters[0].Bus
	bus.ConcurrentStart(0, 16)
	for i := 0; i < 20; i++ {
		bus.Claim(int64(i))
	}
	bus.ConcurrentStart(m.Engine.Cycle(), 4)

	sawBusy := map[string]bool{}
	for _, r := range hub.Attribution() {
		if r.Busy < 0 || r.Stall < 0 || r.Idle < 0 || r.Elapsed <= 0 {
			t.Errorf("%s: negative or empty attribution: %+v", r.Class, r)
		}
		if got := r.Busy + r.Stall + r.Idle; got != r.Elapsed {
			t.Errorf("%s: busy+stall+idle = %d, want elapsed %d (busy %d stall %d idle %d)",
				r.Class, got, r.Elapsed, r.Busy, r.Stall, r.Idle)
		}
		if r.Busy > 0 {
			sawBusy[r.Class] = true
		}
	}
	for _, class := range []string{"ce", "gmem", "cache", "ccbus", "network"} {
		if !sawBusy[class] {
			t.Errorf("class %q reported no busy cycles; the workload should exercise it", class)
		}
	}
}

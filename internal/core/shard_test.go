package core

import (
	"bytes"
	"fmt"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/params"
	"cedar/internal/scope"
	"cedar/internal/sim"
)

// shardWorkload runs a program touching every attributed class on a
// fresh machine under the current sim.SetShards setting and returns the
// machine's observable byte streams plus its hub.
func shardWorkload(t *testing.T) (string, *scope.Hub) {
	t.Helper()
	p := params.Default()
	hub := scope.NewHub()
	m := MustNew(p, Options{Scope: hub})

	gbase := m.AllocGlobal(8192)
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
	// All CEs across all clusters, so cross-cluster network and memory
	// traffic flows through the shard mailboxes.
	res, err := m.Run(prog, 5_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "cycles:%d flops:%d skipped:%d\n", res.Cycles, res.Flops, m.Engine.FastForwarded())
	b.WriteString(scope.FormatAttribution(hub.Attribution()))
	if err := hub.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := hub.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), hub
}

// TestShardedMachineMatchesSequential is the core-level half of the
// shards equivalence gate: the same workload on a sequential and a
// sharded build must produce byte-identical cycles, attribution,
// metrics, and trace. It runs under -race in scripts/check.sh, so the
// detector watches the real phase-A concurrency over the full machine.
func TestShardedMachineMatchesSequential(t *testing.T) {
	if sim.Shards() != 1 {
		t.Fatal("shards already set at test entry; a previous test leaked the setting")
	}
	seq, _ := shardWorkload(t)
	for _, n := range []int{2, 4, 8} {
		sim.SetShards(n)
		got, _ := shardWorkload(t)
		sim.SetShards(1)
		if got != seq {
			t.Errorf("-shards %d diverges from sequential:\n--- shards %d ---\n%.2000s\n--- sequential ---\n%.2000s",
				n, n, got, seq)
		}
	}
}

// TestAttributionConservationParallel pins the conservation law — for
// every component class, busy + stall + idle == elapsed exactly — on a
// machine executing under the parallel engine, where the contributors'
// counters accumulate from concurrent shard ticks.
func TestAttributionConservationParallel(t *testing.T) {
	sim.SetShards(4)
	defer sim.SetShards(1)
	_, hub := shardWorkload(t)
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
	for _, class := range []string{"ce", "gmem", "cache", "network"} {
		if !sawBusy[class] {
			t.Errorf("class %q reported no busy cycles; the workload should exercise it", class)
		}
	}
}

// Shards-vs-sequential equivalence: the intra-run parallel engine
// (internal/sim shard mode) ticks cluster shards concurrently and drains
// cross-shard effects through ordered mailboxes, and its whole contract
// is that the concurrency is unobservable — every artifact must be
// byte-identical to the sequential single-shard schedule. This file is
// the dynamic gate on that contract, the shard analogue of
// TestSteppedVsEventEquality: it runs the experiment suite once with
// SetShards(1) and once with SetShards(4), and byte-compares report
// text, JSON, Chrome trace, and metrics CSV. scripts/check.sh runs it
// under -race, so the detector watches the real phase-A concurrency.
package cedar_test

import (
	"bytes"
	"testing"

	"cedar"
)

// shardedArtifacts collects the suite's observable byte streams under a
// given worker bound.
func shardedArtifacts(t *testing.T, shards int) (report, jsonOut, trace, metrics []byte) {
	t.Helper()
	cedar.SetShards(shards)
	defer cedar.SetShards(1)
	return suiteArtifacts(t)
}

// TestShardsVsSequentialEquality is the parallel-engine acceptance
// check. The sequential run is ground truth; the sharded run must
// reproduce it exactly, down to the cycle-stamped trace spans and the
// attribution table.
func TestShardsVsSequentialEquality(t *testing.T) {
	if cedar.Shards() != 1 {
		t.Fatal("shards already set at test entry; a previous test leaked the setting")
	}
	sRep, sJSON, sTrace, sMetrics := shardedArtifacts(t, 1)
	pRep, pJSON, pTrace, pMetrics := shardedArtifacts(t, 4)
	cedar.ResetRunCache()

	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{
		{"report text", pRep, sRep},
		{"JSON output", pJSON, sJSON},
		{"trace JSON", pTrace, sTrace},
		{"metrics CSV", pMetrics, sMetrics},
	} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s differs between -shards 4 and -shards 1", cmp.name)
		}
	}
	if len(sMetrics) == 0 || len(sTrace) == 0 {
		t.Error("equality check ran without artifacts; the hub saw nothing")
	}
}

// TestShardsVsSequentialDegraded extends the gate to faulted machines:
// the injector draws from a counter-based PRNG keyed on (seed,
// component, cycle), and every draw site runs from the serial hub pass,
// so shard scheduling must not perturb a single draw.
func TestShardsVsSequentialDegraded(t *testing.T) {
	plan := &cedar.FaultPlan{
		Seed: 0xCEDA,
		Faults: []cedar.Fault{
			{Kind: cedar.FaultBankDead, Module: 3},
			{Kind: cedar.FaultStageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
			{Kind: cedar.FaultPFUNack, Module: -1, Rate: 0.02},
		},
	}
	run := func(shards int) []byte {
		t.Helper()
		cedar.ResetRunCache()
		cedar.SetShards(shards)
		defer cedar.SetShards(1)
		rows, err := cedar.RunDegraded(cedar.Env{Faults: plan}, 48)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(rows.Format())
	}
	sequential := run(1)
	sharded := run(4)
	cedar.ResetRunCache()
	if !bytes.Equal(sharded, sequential) {
		t.Errorf("degraded table differs between -shards 4 and -shards 1:\nsharded:\n%s\nsequential:\n%s",
			sharded, sequential)
	}
}

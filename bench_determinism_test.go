package cedar_test

import (
	"bytes"
	"testing"

	"cedar/internal/bench"
)

// TestBenchArtifactDeterminism is the cedarbench acceptance check, a
// sibling of TestParallelVsSequentialEquality: a campaign's
// deterministic section must be byte-identical whether the matrix runs
// on one worker or eight, on the omega machine and the crossbar one.
// The facade does not re-export the campaign runner, so this calls
// internal/bench directly. It runs under -race in scripts/check.sh, so
// the detector watches the real parallel execution of the jobs=8 pass.
func TestBenchArtifactDeterminism(t *testing.T) {
	campaign := func() *bench.Campaign {
		return &bench.Campaign{
			Area: "gate",
			Machines: []bench.MachineSpec{
				{Name: "cedar"},
				{Name: "cedar-xbar", Fabric: "crossbar"},
			},
			Workloads: []bench.WorkloadSpec{
				{Name: "rank16", Kind: "rank", N: 16, Variant: "pref"},
				{Name: "vl256", Kind: "vectorload", N: 256},
			},
			Faults: []bench.FaultSpec{{Name: "healthy"}, {Name: "demo", Demo: true}},
		}
	}

	run := func(jobs int) []byte {
		t.Helper()
		art, err := bench.Run(campaign(), bench.RunOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := art.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	seq, par := run(1), run(8)
	if !bytes.Equal(par, seq) {
		t.Errorf("bench deterministic section differs between -jobs 1 and -jobs 8 (%d vs %d bytes)", len(seq), len(par))
	}

	// Diff sanity: identical artifacts are clean; a
	// simcycle bump past the threshold is a regression.
	art1, err := bench.Run(campaign(), bench.RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	art2, err := bench.Run(campaign(), bench.RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench.Diff(art1, art2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegressions() {
		t.Errorf("identical campaigns diff dirty: %s", rep.Format())
	}
	art2.Deterministic.Points[0].SimCycles = art2.Deterministic.Points[0].SimCycles * 11 / 10
	rep, err = bench.Diff(art1, art2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegressions() {
		t.Error("10% simcycle bump not flagged at the 5% default threshold")
	}
}

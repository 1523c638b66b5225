// Run equality: how a run executes must never show in what it produces.
// The fleet pool (-jobs) dispatches whole points in parallel and merges
// their hubs in submission order; the event wheel (internal/sim) skips
// sleeping components and jumps the clock over empty cycles, where the
// Stepped engine ticks every component every cycle. Each axis is two
// RunAll calls over the same catalogue names, compared by bytes: report
// text, the cedarsim -json payload, Chrome trace and metrics CSV.
package cedar_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cedar"
)

// artifacts are every byte stream a run is observed through.
type artifacts struct {
	report, jsonOut, trace, metrics []byte
}

// runArtifacts runs the named catalogue entries through RunAll under env
// with a fresh hub, the way cedarsim runs them. The report is each
// table's Format plus the attribution table; the JSON is cedarsim -json's
// payload per entry, the result plus the entry's metric slice.
func runArtifacts(t *testing.T, env cedar.Env, sizes cedar.Sizes, names ...string) artifacts {
	t.Helper()
	exps, err := cedar.Experiments(names...)
	if err != nil {
		t.Fatal(err)
	}
	hub := cedar.NewHub()
	env.Hub = hub
	var rep, js, tb, mb bytes.Buffer
	enc := json.NewEncoder(&js)
	enc.SetIndent("", "  ")
	err = cedar.RunAll(env, sizes, exps, func(e cedar.Experiment, res cedar.ExperimentResult) error {
		rep.WriteString(res.Format())
		return enc.Encode(struct {
			Result  cedar.ExperimentResult `json:"result"`
			Metrics []cedar.MetricSample   `json:"metrics"`
		}{res, hub.SnapshotUnder(e.Namespace())})
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.WriteString(cedar.FormatAttribution(hub.Attribution()))
	if err := hub.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := hub.WriteMetricsCSV(&mb); err != nil {
		t.Fatal(err)
	}
	return artifacts{rep.Bytes(), js.Bytes(), tb.Bytes(), mb.Bytes()}
}

// demoPlan is the fault plan of the faulted gates: a dead bank, a jammed
// network stage and transient prefetch NACKs.
func demoPlan() *cedar.FaultPlan {
	return &cedar.FaultPlan{
		Seed: 0xCEDA,
		Faults: []cedar.Fault{
			{Kind: cedar.FaultBankDead, Module: 3},
			{Kind: cedar.FaultStageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
			{Kind: cedar.FaultPFUNack, Module: -1, Rate: 0.02},
		},
	}
}

// The healthy gates run a representative slice of the catalogue, the
// faulted gates the degraded-mode table.
var (
	healthyNames, faultedNames = []string{"t1", "overheads", "membw"}, []string{"degraded"}
	healthySizes, faultedSizes = cedar.Sizes{RankN: 64, MemBWWords: 256}, cedar.Sizes{RankN: 48}
)

// TestParallelVsSequentialEquality is the acceptance check of the fleet
// pool: -jobs 8 must be invisible in every artifact against -jobs 1. It
// runs under -race on purpose: the detector sees the real parallel
// execution.
func TestParallelVsSequentialEquality(t *testing.T) {
	checkEquality(t, healthyNames, healthySizes, cedar.Env{Jobs: 1}, cedar.Env{Jobs: 8})
}

// TestFaultedRunDeterministic is the same check under a fault plan: the
// injector draws from a counter-based PRNG keyed on (seed, component,
// cycle), never from shared state, so a degraded run is as reproducible
// at -jobs 8 as a healthy one.
func TestFaultedRunDeterministic(t *testing.T) {
	plan := demoPlan()
	checkEquality(t, faultedNames, faultedSizes, cedar.Env{Faults: plan, Jobs: 1}, cedar.Env{Faults: plan, Jobs: 8})
}

// TestSteppedVsEventEquality is the acceptance check of the event wheel.
// The stepped side is ground truth: it is the schedule the machine model
// was validated against.
func TestSteppedVsEventEquality(t *testing.T) {
	checkEquality(t, healthyNames, healthySizes, cedar.Env{Stepped: true}, cedar.Env{})
}

// TestSteppedVsEventDegraded is the wheel's check under a fault plan: a
// divergence means some fault site consumes randomness on a cycle the
// wheel skips.
func TestSteppedVsEventDegraded(t *testing.T) {
	plan := demoPlan()
	checkEquality(t, faultedNames, faultedSizes, cedar.Env{Faults: plan, Stepped: true}, cedar.Env{Faults: plan})
}

// checkEquality is the one harness of the four gates above: it runs names
// under the reference env want and under got, with the worker count or
// the engine the only difference, and requires every artifact
// byte-identical: the report text, the -json payload, the Chrome trace
// and the metrics CSV.
func checkEquality(t *testing.T, names []string, sizes cedar.Sizes, wantEnv, gotEnv cedar.Env) {
	t.Helper()
	want := runArtifacts(t, wantEnv, sizes, names...)
	got := runArtifacts(t, gotEnv, sizes, names...)
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"report text", got.report, want.report},
		{"JSON output", got.jsonOut, want.jsonOut},
		{"trace JSON", got.trace, want.trace},
		{"metrics CSV", got.metrics, want.metrics},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s differs from the reference side's", c.name)
		}
	}
	// Equal artifacts prove nothing if the hub saw nothing.
	if !bytes.Contains(want.metrics, []byte("ce.active_cycles")) || !bytes.Contains(want.trace, []byte("traceEvents")) {
		t.Error("the hub saw nothing: no ce.active_cycles counter or no Chrome trace events")
	}
	if slices.Contains(names, "degraded") {
		checkFaultsFired(t, want)
	}
}

// checkFaultsFired keeps a faulted row from passing vacuously: the
// degraded table's healthy row must stay clean, some faulted row must
// inject, and the metrics must carry the injector's fault.* counters.
func checkFaultsFired(t *testing.T, a artifacts) {
	t.Helper()
	var payload struct{ Result []cedar.DegradedRow }
	if err := json.Unmarshal(a.jsonOut, &payload); err != nil {
		t.Fatal(err)
	}
	rows := payload.Result
	if len(rows) < 2 {
		t.Fatalf("degraded table has %d rows", len(rows))
	}
	if rows[0].Injected != 0 || rows[0].DeadMods != 0 {
		t.Errorf("healthy baseline row saw faults: %+v", rows[0])
	}
	injected := int64(0)
	for _, r := range rows[1:] {
		injected += r.Injected + int64(r.DeadMods)
	}
	if injected == 0 {
		t.Error("no scenario injected any fault; the plan never fired")
	}
	if !bytes.Contains(a.metrics, []byte("fault.")) {
		t.Error("metrics CSV carries no fault.* counters")
	}
}

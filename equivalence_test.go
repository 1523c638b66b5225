// Stepped-vs-event equivalence: the event-wheel engine (internal/sim)
// skips sleeping components and jumps the clock over empty cycles, and
// its whole contract is that neither is observable — every artifact must
// be byte-identical to the pure per-cycle stepped schedule. This file is
// the dynamic gate on that contract, the event-wheel analogue of
// TestParallelVsSequentialEquality: it runs the experiment suite once
// under Env{Stepped: true} and once with the wheel on, and byte-compares
// report text, JSON, Chrome trace, and metrics CSV.
package cedar_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cedar"
)

// suiteArtifacts runs the representative experiment slice (the same one
// the -jobs equality gate uses) on the given engine and collects every
// observable byte stream.
func suiteArtifacts(t *testing.T, stepped bool) (report, jsonOut, trace, metrics []byte) {
	t.Helper()
	hub := cedar.NewHub()
	env := cedar.Env{Hub: hub, Stepped: stepped}
	var rep bytes.Buffer

	t1, err := cedar.RunTable1(env, 64)
	if err != nil {
		t.Fatal(err)
	}
	rep.WriteString(t1.Format())
	ov, err := cedar.RunOverheads(env)
	if err != nil {
		t.Fatal(err)
	}
	rep.WriteString(ov.Format())
	bw, err := cedar.RunMemBW(env, 256)
	if err != nil {
		t.Fatal(err)
	}
	rep.WriteString(bw.Format())
	rep.WriteString(cedar.FormatAttribution(hub.Attribution()))

	jsonBytes, err := json.MarshalIndent(struct {
		Result  *cedar.Table1Result  `json:"result"`
		Metrics []cedar.MetricSample `json:"metrics"`
	}{t1, hub.SnapshotUnder("t1")}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	var tb, mb bytes.Buffer
	if err := hub.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := hub.WriteMetricsCSV(&mb); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), jsonBytes, tb.Bytes(), mb.Bytes()
}

// TestSteppedVsEventEquality is the event-wheel acceptance check. The
// stepped run is ground truth (it is the schedule the machine model was
// validated against); the event run must reproduce it exactly, down to
// the cycle-stamped trace spans and the attribution table.
func TestSteppedVsEventEquality(t *testing.T) {
	sRep, sJSON, sTrace, sMetrics := suiteArtifacts(t, true)
	eRep, eJSON, eTrace, eMetrics := suiteArtifacts(t, false)

	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{
		{"report text", eRep, sRep},
		{"JSON output", eJSON, sJSON},
		{"trace JSON", eTrace, sTrace},
		{"metrics CSV", eMetrics, sMetrics},
	} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s differs between stepped and event engines", cmp.name)
		}
	}
	if len(sMetrics) == 0 || len(sTrace) == 0 {
		t.Error("equality check ran without artifacts; the hub saw nothing")
	}
}

// TestSteppedVsEventDegraded extends the gate to faulted machines: the
// injector draws from a counter-based PRNG keyed on (seed, component,
// cycle), so skipping a component's no-op ticks must not perturb a
// single draw. A divergence here means some fault site consumes
// randomness on cycles the wheel skips.
func TestSteppedVsEventDegraded(t *testing.T) {
	plan := &cedar.FaultPlan{
		Seed: 0xCEDA,
		Faults: []cedar.Fault{
			{Kind: cedar.FaultBankDead, Module: 3},
			{Kind: cedar.FaultStageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
			{Kind: cedar.FaultPFUNack, Module: -1, Rate: 0.02},
		},
	}
	run := func(stepped bool) []byte {
		t.Helper()
		rows, err := cedar.RunDegraded(cedar.Env{Faults: plan, Stepped: stepped}, 48)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(rows.Format())
	}
	stepped, event := run(true), run(false)
	if !bytes.Equal(event, stepped) {
		t.Errorf("degraded table differs between stepped and event engines:\nevent:\n%s\nstepped:\n%s",
			event, stepped)
	}
}

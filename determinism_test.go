// End-to-end determinism regression: the simulator's whole value as a
// reproduction rests on identical runs producing identical cycle counts
// and identical report bytes. cedarvet (cmd/cedarvet) enforces the
// invariants statically; this test enforces them dynamically by running
// the same workloads twice in one process. See DESIGN.md "Determinism
// invariants and cedarvet".
package cedar_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cedar"
)

// trackProfile returns the smallest Perfect proxy, cheap enough to
// simulate twice per test run.
func trackProfile(t *testing.T) cedar.PerfectProfile {
	t.Helper()
	for _, p := range cedar.PerfectCodes() {
		if p.Name == "TRACK" {
			return p
		}
	}
	t.Fatal("TRACK missing from the Perfect suite")
	panic("unreachable")
}

func TestPerfectRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Perfect proxy run in -short mode")
	}
	code := trackProfile(t)
	run := func() cedar.PerfectOutcome {
		out, err := cedar.RunPerfect(cedar.DefaultParams(), code, cedar.PerfectSpec{Variant: cedar.PerfectAuto})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("two identical Perfect runs disagree:\n first: %+v\nsecond: %+v", first, second)
	}
	if first.SimCycles <= 0 {
		t.Errorf("SimCycles = %d, want > 0", first.SimCycles)
	}
}

func TestKernelCycleDeterminism(t *testing.T) {
	run := func() cedar.KernelResult {
		m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
		res, err := cedar.RankUpdate(m, 64, cedar.RKPref)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if first.Cycles != second.Cycles {
		t.Errorf("rank-64 update cycle counts disagree: %d vs %d", first.Cycles, second.Cycles)
	}
	if first.Flops != second.Flops || first.MFLOPS != second.MFLOPS {
		t.Errorf("rank-64 update results disagree: %+v vs %+v", first.Result, second.Result)
	}
}

// TestScopeArtifactsDeterminism is the observability acceptance check:
// the same instrumented run twice must yield byte-identical Chrome trace
// JSON and metrics CSV.
func TestScopeArtifactsDeterminism(t *testing.T) {
	run := func() (trace, metrics []byte) {
		hub := cedar.NewHub()
		m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{Scope: hub})
		if _, err := cedar.RankUpdate(m, 64, cedar.RKPref); err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := hub.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := hub.WriteMetricsCSV(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs between identical instrumented runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics CSV differs between identical instrumented runs")
	}
	if !bytes.Contains(m1, []byte("ce.active_cycles")) {
		t.Error("metrics CSV missing expected ce.active_cycles counter")
	}
	if !bytes.Contains(t1, []byte("traceEvents")) {
		t.Error("trace output is not Chrome trace-event JSON")
	}
}

// TestParallelVsSequentialEquality is the cedarfleet acceptance check:
// the worker pool must be invisible in every observable byte stream. It
// runs a representative slice of the experiment suite at -jobs 1 and
// -jobs 8 and byte-compares the formatted report text, the cedarsim
// -json rendering, and the hub's trace and metrics artifacts. It runs
// under -race on purpose — the pool is enabled, so the detector sees the
// real parallel execution.
func TestParallelVsSequentialEquality(t *testing.T) {
	type artifacts struct {
		report, jsonOut, trace, metrics []byte
	}
	run := func(jobs int) artifacts {
		t.Helper()
		hub := cedar.NewHub()
		env := cedar.Env{Hub: hub, Jobs: jobs}
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

		// The payload of the cedarsim -json shape: result plus the
		// experiment's metric slice. The run-metadata header is omitted
		// on purpose — it records the jobs value, the one field allowed
		// to differ between byte-compared runs.
		jsonOut, err := json.MarshalIndent(struct {
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
		return artifacts{rep.Bytes(), jsonOut, tb.Bytes(), mb.Bytes()}
	}

	seq, par := run(1), run(8)
	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{
		{"report text", par.report, seq.report},
		{"JSON output", par.jsonOut, seq.jsonOut},
		{"trace JSON", par.trace, seq.trace},
		{"metrics CSV", par.metrics, seq.metrics},
	} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s differs between -jobs 1 and -jobs 8", cmp.name)
		}
	}
	if len(seq.metrics) == 0 || len(seq.trace) == 0 {
		t.Error("equality check ran without artifacts; the hub saw nothing")
	}
}

func TestReportBytesDeterminism(t *testing.T) {
	gen := func() string {
		var b strings.Builder
		err := cedar.WriteReport(&b, cedar.ReportConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if first, second := gen(), gen(); first != second {
		t.Errorf("report header bytes disagree across runs:\n%q\nvs\n%q", first, second)
	}
}

// TestFaultedRunDeterministic is the cedarfault acceptance check: a
// degraded run is as reproducible as a healthy one. The same fault plan
// (a dead bank, a jammed network stage, transient prefetch NACKs) at
// -jobs 1 and -jobs 8 must yield byte-identical table text, JSON, trace
// and metrics — the injector draws from a counter-based PRNG keyed on
// (seed, component, cycle), never from shared mutable state. Like the
// healthy equality test it runs under -race with the pool really on.
func TestFaultedRunDeterministic(t *testing.T) {
	plan := &cedar.FaultPlan{
		Seed: 0xCEDA,
		Faults: []cedar.Fault{
			{Kind: cedar.FaultBankDead, Module: 3},
			{Kind: cedar.FaultStageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
			{Kind: cedar.FaultPFUNack, Module: -1, Rate: 0.02},
		},
	}
	type artifacts struct {
		table, jsonOut, trace, metrics []byte
		rows                           []cedar.DegradedRow
	}
	run := func(jobs int) artifacts {
		t.Helper()
		hub := cedar.NewHub()
		rows, err := cedar.RunDegraded(cedar.Env{Hub: hub, Faults: plan, Jobs: jobs}, 48)
		if err != nil {
			t.Fatal(err)
		}
		jsonOut, err := json.MarshalIndent(struct {
			Result  []cedar.DegradedRow  `json:"result"`
			Metrics []cedar.MetricSample `json:"metrics"`
		}{rows, hub.SnapshotUnder("degraded")}, "", "  ")
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
		return artifacts{[]byte(rows.Format()), jsonOut, tb.Bytes(), mb.Bytes(), rows}
	}

	seq, par := run(1), run(8)
	for _, cmp := range []struct {
		name      string
		got, want []byte
	}{
		{"degraded table text", par.table, seq.table},
		{"JSON output", par.jsonOut, seq.jsonOut},
		{"trace JSON", par.trace, seq.trace},
		{"metrics CSV", par.metrics, seq.metrics},
	} {
		if !bytes.Equal(cmp.got, cmp.want) {
			t.Errorf("%s differs between -jobs 1 and -jobs 8:\n-jobs 8:\n%s\n-jobs 1:\n%s",
				cmp.name, cmp.got, cmp.want)
		}
	}

	// The check is vacuous if nothing was actually injected: the healthy
	// baseline row must stay clean and the faulted rows must fire.
	if len(seq.rows) < 2 {
		t.Fatalf("degraded table has %d rows", len(seq.rows))
	}
	if seq.rows[0].Injected != 0 || seq.rows[0].DeadMods != 0 {
		t.Errorf("healthy baseline row saw faults: %+v", seq.rows[0])
	}
	injected := int64(0)
	for _, r := range seq.rows[1:] {
		injected += r.Injected + int64(r.DeadMods)
	}
	if injected == 0 {
		t.Error("no scenario injected any fault; the plan never fired")
	}
	if !bytes.Contains(seq.metrics, []byte("fault.")) {
		t.Error("metrics CSV carries no fault.* counters")
	}
}

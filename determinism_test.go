// End-to-end determinism regression: the simulator's whole value as a
// reproduction rests on identical runs producing identical cycle counts
// and identical report bytes. This test enforces that by running the
// same workloads twice in one process and comparing the bytes. See
// DESIGN.md "Static checks".
package cedar_test

import (
	"bytes"
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

// TestReportBytesDeterminism generates the report header twice: with no
// experiment named, WriteReport writes only the parts that depend on
// nothing but the Env.
func TestReportBytesDeterminism(t *testing.T) {
	gen := func() string {
		var b strings.Builder
		err := cedar.WriteReport(&b, cedar.Env{}, cedar.Sizes{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if first, second := gen(), gen(); first != second {
		t.Errorf("report header bytes disagree across runs:\n%q\nvs\n%q", first, second)
	}
}

package tables

import (
	"strings"
	"testing"
	"time"

	"cedar/internal/perfect"
	"cedar/internal/scope"
)

func TestWriteReportKernelsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("full-report simulation is too slow under the race detector")
	}
	var b strings.Builder
	err := WriteReport(&b, ReportConfig{
		Names: Kernels,
		Sizes: Sizes{RankN: 96},
		Now:   time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Cedar evaluation report",
		"Table 1", "Table 2", "GM/no-pref",
		"runtime overheads", "memory characterization",
		"network ablation", "scheduling ablation", "scaled Cedar",
		"report generated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Table 3") {
		t.Error("kernels-only report should skip the Perfect suite")
	}
}

func TestWriteReportMethodologySections(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("full-report simulation is too slow under the race detector")
	}
	var b strings.Builder
	err := WriteReport(&b, ReportConfig{
		Names: Evaluation[len(Kernels):],
		Sizes: Sizes{Codes: []perfect.Profile{perfect.QCD(), perfect.SPICE()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 3", "Table 4", "Table 5", "Table 6", "Figure 3", "PPT4",
		"QCD", "SPICE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Table 1 —") {
		t.Error("kernel sections should be skipped")
	}
}

// TestWriteReportDeterministic is the report half of the determinism
// invariant: with no injected clock, two identical runs must produce
// byte-identical output (see DESIGN.md "Determinism invariants"). Each
// report observes its own hub, so the second is seen to simulate every
// point the first did: nothing is kept between calls.
func TestWriteReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("full-report simulation is too slow under the race detector")
	}
	gen := func() (string, int) {
		var b strings.Builder
		hub := scope.NewHub()
		err := WriteReport(&b, ReportConfig{
			Names: Kernels,
			Sizes: Sizes{RankN: 64},
			Env:   Env{Hub: hub},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), hub.Metrics()
	}
	first, metrics1 := gen()
	second, metrics2 := gen()
	if metrics1 == 0 || metrics2 != metrics1 {
		t.Errorf("the reports registered %d and %d metrics: want the same nonzero count, every point simulated twice", metrics1, metrics2)
	}
	if first != second {
		line := 1
		for i := 0; i < len(first) && i < len(second); i++ {
			if first[i] != second[i] {
				t.Fatalf("reports diverge at byte %d (line %d)", i, line)
			}
			if first[i] == '\n' {
				line++
			}
		}
		t.Fatalf("reports differ in length: %d vs %d bytes", len(first), len(second))
	}
	if strings.Contains(first, "report generated") {
		t.Error("deterministic report (nil Now) must omit the wall-clock trailer")
	}
}

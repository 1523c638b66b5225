package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/scope"
)

// fix builds a two-point artifact with measured runs for diff tests.
func fix() *Artifact {
	return &Artifact{
		Header: Header{Schema: SchemaVersion, Tool: "cedarbench", Area: "t", Jobs: []int{1}, Points: 2},
		Deterministic: Deterministic{
			Points: []PointResult{
				{ID: "m/w1/healthy", Outcome: Outcome{Status: "ok", SimCycles: 1000}},
				{ID: "m/w2/healthy", Outcome: Outcome{Status: "ok", SimCycles: 2000}},
			},
		},
		Measured: Measured{Runs: []RunMeasure{{Jobs: 1, Mallocs: 10000, AllocBytes: 1 << 20}}},
	}
}

func TestDiffNoChange(t *testing.T) {
	r, err := Diff(fix(), fix())
	if err != nil {
		t.Fatal(err)
	}
	if r.HasRegressions() || len(r.Improvements) != 0 || len(r.Notes) != 0 {
		t.Fatalf("identical artifacts should be clean: %s", r.Format())
	}
	if !strings.Contains(r.Format(), "no change") {
		t.Fatalf("clean format: %q", r.Format())
	}
}

func TestDiffFlagsSimcycleRegression(t *testing.T) {
	n := fix()
	n.Deterministic.Points[0].SimCycles = 1100 // +10% > 5%
	r, err := Diff(fix(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Regressions) != 1 || r.Regressions[0].Metric != "simcycles" || r.Regressions[0].ID != "m/w1/healthy" {
		t.Fatalf("want one simcycle regression: %s", r.Format())
	}
	// The threshold is 5%: +5% passes, one more cycle does not.
	for cycles, want := range map[int64]bool{1050: false, 1051: true} {
		n.Deterministic.Points[0].SimCycles = cycles
		r, err := Diff(fix(), n)
		if err != nil {
			t.Fatal(err)
		}
		if r.HasRegressions() != want {
			t.Errorf("1000 -> %d simcycles: regression %v, want %v: %s", cycles, r.HasRegressions(), want, r.Format())
		}
	}
}

// TestDiffFlagsImprovementAndStatusChange: fewer simcycles at the same
// status is an improvement and passes; a status change fails the diff
// whatever the cycles did — an abandoned degraded run stops early, so
// its drop must not read as a win.
func TestDiffFlagsImprovementAndStatusChange(t *testing.T) {
	for _, tc := range []struct {
		name      string
		oldCycles int64 // m/w2's baseline simcycles
		newCycles int64
		status    string // m/w2's new status
	}{
		{"pure improvement passes", 2000, 1500, "ok"},
		{"status flip with fewer cycles fails", 2000, 1500, "degraded"},
		{"status flip with unchanged cycles fails", 2000, 2000, "degraded"},
		{"status flip at a zero baseline fails", 0, 0, "degraded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, n := fix(), fix()
			old.Deterministic.Points[1].SimCycles = tc.oldCycles
			n.Deterministic.Points[1].SimCycles = tc.newCycles
			n.Deterministic.Points[1].Status = tc.status
			r, err := Diff(old, n)
			if err != nil {
				t.Fatal(err)
			}
			out := r.Format()
			if len(r.Notes) != 0 {
				t.Errorf("want no notes: %s", out)
			}
			if tc.status == "ok" {
				if r.HasRegressions() || len(r.Improvements) != 1 || r.Improvements[0].ID != "m/w2/healthy" {
					t.Fatalf("want one improvement and no regression: %s", out)
				}
				return
			}
			if len(r.Regressions) != 1 || len(r.Improvements) != 0 || r.Regressions[0].ID != "m/w2/healthy" {
				t.Fatalf("want one regression on m/w2/healthy and no improvement: %s", out)
			}
			if l := r.Regressions[0]; l.Old != tc.oldCycles || l.New != tc.newCycles ||
				!strings.Contains(l.Metric, `"ok"`) || !strings.Contains(l.Metric, `"degraded"`) {
				t.Errorf("regression must name both statuses and carry the simcycles: %+v", l)
			}
			if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
				t.Errorf("zero baseline leaked Inf/NaN: %q", out)
			}
		})
	}
}

func TestDiffMissingPointIsRegression(t *testing.T) {
	n := fix()
	n.Deterministic.Points = n.Deterministic.Points[:1]
	r, err := Diff(fix(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Regressions) != 1 || r.Regressions[0].ID != "m/w2/healthy" {
		t.Fatalf("vanished point must regress: %s", r.Format())
	}
}

func TestDiffNewPointIsNote(t *testing.T) {
	n := fix()
	n.Deterministic.Points = append(n.Deterministic.Points,
		PointResult{ID: "m/w3/healthy", Outcome: Outcome{Status: "ok", SimCycles: 10}})
	r, err := Diff(fix(), n)
	if err != nil {
		t.Fatal(err)
	}
	if r.HasRegressions() || len(r.Notes) != 1 || !strings.Contains(r.Notes[0], "new point") {
		t.Fatalf("added point should be a note: %s", r.Format())
	}
}

// TestDiffFlagsAllocRegression is the table for the measured half of the
// diff: how passes pair up, when malloc growth fails it, and what the
// comparison says about the baseline itself.
func TestDiffFlagsAllocRegression(t *testing.T) {
	// The baseline is a PR-9-era artifact: campaigns then had a second
	// pass axis, so the header and every run carry "shards" and a jobs
	// value repeats. It must still load, and its first pass per jobs
	// value — the one schedule every artifact since runs — is the baseline.
	legacy := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := os.WriteFile(legacy, []byte(`{"header":{"schema":1,"tool":"cedarbench","area":"t","jobs":[1],"shards":[1,4],"points":0},
		"deterministic":{"points":[],"fleet":{"lookups":0,"misses":0,"served":0,"hit_rate":0}},
		"measured":{"gomaxprocs":1,"num_cpu":1,"runs":[{"jobs":1,"shards":1,"mallocs":10000,"alloc_bytes":1},{"jobs":1,"shards":4,"mallocs":99999,"alloc_bytes":1}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := ReadArtifact(legacy)
	if err != nil {
		t.Fatalf("artifact with a shards axis must still load: %v", err)
	}
	for _, tc := range []struct {
		name           string
		jobs           int
		mallocs        uint64
		wantRegression bool
		wantNote       string
	}{
		{"+50% is past the 30% threshold", 1, 15000, true, ""},
		{"+30% is within it", 1, 13000, false, ""},
		{"one more malloc is past it", 1, 13001, true, ""},
		{"a pass the baseline never ran is not comparable", 8, 15000, false, ""},
		{"first pass per jobs value is the baseline", 1, 10000, false, ""},
		{"baseline within 1.3x of measured", 1, 8000, false, ""},
		{"baseline past 1.3x measured warns without failing", 1, 7000, false, "stale baseline"},
	} {
		n := &Artifact{Header: Header{Area: "t"}, Measured: Measured{Runs: []RunMeasure{{Jobs: tc.jobs, Mallocs: tc.mallocs}}}}
		r, err := Diff(old, n)
		if err != nil {
			t.Fatal(err)
		}
		out := r.Format()
		if r.HasRegressions() != tc.wantRegression || tc.wantRegression && r.Regressions[0].Metric != "mallocs" {
			t.Errorf("%s: regressions = %v, want %v on mallocs: %s", tc.name, r.HasRegressions(), tc.wantRegression, out)
		}
		if tc.wantNote == "" && len(r.Notes) != 0 || !strings.Contains(out, tc.wantNote) {
			t.Errorf("%s: want note %q, got: %s", tc.name, tc.wantNote, out)
		}
	}
}

// TestDiffZeroBaselines pins the zero-baseline arithmetic: a baseline
// value of zero must never render +Inf% or NaN, a 0 -> 0 quantity is
// clean, and growth from zero is an explicit new-vs-zero regression.
func TestDiffZeroBaselines(t *testing.T) {
	cases := []struct {
		name           string
		mutate         func(old, new *Artifact)
		wantRegression bool
		wantMetric     string
	}{
		{
			name: "simcycles zero to nonzero",
			mutate: func(old, new *Artifact) {
				old.Deterministic.Points[0].SimCycles = 0
			},
			wantRegression: true,
			wantMetric:     "simcycles",
		},
		{
			name: "simcycles zero to zero",
			mutate: func(old, new *Artifact) {
				old.Deterministic.Points[0].SimCycles = 0
				new.Deterministic.Points[0].SimCycles = 0
			},
		},
		{
			name: "mallocs zero to nonzero",
			mutate: func(old, new *Artifact) {
				old.Measured.Runs[0].Mallocs = 0
			},
			wantRegression: true,
			wantMetric:     "mallocs",
		},
		{
			name: "mallocs zero to zero",
			mutate: func(old, new *Artifact) {
				old.Measured.Runs[0].Mallocs = 0
				new.Measured.Runs[0].Mallocs = 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, n := fix(), fix()
			tc.mutate(old, n)
			r, err := Diff(old, n)
			if err != nil {
				t.Fatal(err)
			}
			out := r.Format()
			if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
				t.Fatalf("zero baseline leaked Inf/NaN: %q", out)
			}
			if !tc.wantRegression {
				if r.HasRegressions() {
					t.Fatalf("want clean diff: %s", out)
				}
				return
			}
			if len(r.Regressions) != 1 {
				t.Fatalf("want exactly one regression: %s", out)
			}
			l := r.Regressions[0]
			if l.Metric != tc.wantMetric || !l.ZeroBase || l.Old != 0 || l.New == 0 || l.Delta != 0 {
				t.Fatalf("zero-base line malformed: %+v", l)
			}
			if !strings.Contains(out, "zero baseline") {
				t.Fatalf("report must state new-vs-zero explicitly: %q", out)
			}
		})
	}
}

func TestDiffRejectsMismatchedAreas(t *testing.T) {
	n := fix()
	n.Header.Area = "other"
	if _, err := Diff(fix(), n); err == nil {
		t.Fatal("cross-area diff should error")
	}
}

// TestDiffNotesAMoveWithinTheThresholds: a metric that moved, or
// simcycles that moved by less than 5%, fails nothing, but the report is
// not "no change": a note names the first point and what moved in it.
func TestDiffNotesAMoveWithinTheThresholds(t *testing.T) {
	withMetric := func(v int64) *Artifact {
		a := fix()
		a.Deterministic.Points[1].Metrics = []scope.Sample{{Name: "gmem.stalls", Kind: "counter", Value: v}}
		return a
	}
	cycles := fix()
	cycles.Deterministic.Points[0].SimCycles = 1030
	for _, tc := range []struct {
		name     string
		old, new *Artifact
		want     string
	}{
		{"one metric value", withMetric(3), withMetric(4), "first at m/w2/healthy: metric gmem.stalls 3 -> 4"},
		{"simcycles +3%", fix(), cycles, "first at m/w1/healthy: simcycles 1000 -> 1030"},
	} {
		r, err := Diff(tc.old, tc.new)
		if err != nil {
			t.Fatal(err)
		}
		out := r.Format()
		if r.HasRegressions() || strings.Contains(out, "no change") || !strings.Contains(out, tc.want) {
			t.Errorf("%s: want no regression and a note saying %q, got: %s", tc.name, tc.want, out)
		}
	}
}

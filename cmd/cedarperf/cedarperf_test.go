package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneSeam keeps every import of the simulator's internals in
// adapter.go, so an API refactor meets the benchmark in one file.
func TestOneSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "cedar/") && file != "adapter.go" {
				t.Errorf("%s imports %s; simulator imports belong in adapter.go only", file, path)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the Go-side
// metric and workload tables the same list.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var bench struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner has %q: %q", i, bench.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the runner has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Paths) != 1 || bench.Paths[0] != "cmd/cedarperf" {
		t.Errorf("paths = %v, want [cmd/cedarperf]", bench.Paths)
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 1, trace: trace, tiny: true, dir: t.TempDir()}
}

// checkMetrics asserts each declared metric appears once, with its unit
// and a finite value.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.Name, m.Value)
		}
	}
	line, err := res.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var contract map[string]json.RawMessage
	if err := json.Unmarshal(line, &contract); err != nil || len(contract) != 4 {
		t.Errorf("%s: contract line %s: %v", res.Workload, line, err)
	}
}

// TestSmoke runs every workload end to end, and every phase and rig
// under tracing, at -scale tiny.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := w.run(tinyConfig(t, w.name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; the contract wants it never 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
	// dense covers the engine trace path and every rig including the
	// serve rig; serve covers the request trace path.
	for _, name := range []string{"dense", "serve"} {
		w, _ := findWorkload(name)
		cfg := tinyConfig(t, name, true)
		res, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkMetrics(t, res, perLayer)
		if _, err := os.Stat(cfg.tracePath()); err != nil {
			t.Errorf("%s traced: no trace file: %v", name, err)
		}
		unique := float64(cfg.servePlan().cold + cfg.servePlan().newKeys())
		if got := res.Metrics["serve.simulations"].Value; got != unique {
			t.Errorf("%s traced: serve.simulations = %v, want the %v unique keys sent", name, got, unique)
		}
	}
}

// TestPlantedFailuresRaiseFailedShare corrupts one compared value per
// kind of workload and expects the run to notice.
func TestPlantedFailuresRaiseFailedShare(t *testing.T) {
	cfg := tinyConfig(t, "sparse", false)
	cfg.plantOutcome = true
	res, err := runSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct || res.failedShare() == 0 {
		t.Errorf("planted cross-pass outcome mismatch went unnoticed: %+v", res)
	}
	cfg = tinyConfig(t, "serve", false)
	cfg.plantBody = true
	res, err = runServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct || res.failedShare() == 0 {
		t.Errorf("planted wrong body hash went unnoticed: %+v", res)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	for _, tc := range []struct {
		name       string
		base, next []float64
		better     string
		want       string
	}{
		{"same", steady, steady, "lower", "unchanged"},
		{"slower latency", steady, shift(steady, 1.2), "lower", "worse"},
		{"faster latency", steady, shift(steady, 0.8), "lower", "better"},
		{"higher rate", steady, shift(steady, 1.2), "higher", "better"},
		{"lower rate", steady, shift(steady, 0.8), "higher", "worse"},
		{"within bound", steady, shift(steady, 1.05), "lower", "unchanged"},
		{"noise hides a regression", noisy, shift(noisy, 1.15), "lower", "unresolved"},
		{"noise hides everything", noisy, noisy, "lower", "unresolved"},
		{"clear of the noise", noisy, shift(noisy, 3), "lower", "worse"},
	} {
		if got := judge(tc.base, tc.next, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsOneOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mallocs float64, failed int) string {
		rep := report{Workloads: []*result{{Workload: "dense", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"mallocs_per_op": {Value: mallocs, Unit: "count", N: 10}},
			// A timing twice as slow: judged, reported, never fatal.
			Detail: map[string]metric{"run.op_p50_ms": {Value: 2 * mallocs, Unit: "ms", N: 10}}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	base, slow, same, broken := write("base.json", 100, 0), write("slow.json", 110, 0), write("same.json", 100.5, 0), write("broken.json", 100, 3)
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-bench", bench, base, same}, 0},
		{[]string{"-bench", bench, base, slow}, 1},
		{[]string{"-bench", bench, base, same, "--", slow, slow}, 1},
		{[]string{"-bench", bench, base, broken}, 1},
		{[]string{"-bench", bench, base}, 2},
	} {
		if got := compareCmd(tc.args, null, null); got != tc.want {
			t.Errorf("compare %v: exit %d, want %d", tc.args[2:], got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("q1.0 = %v, want 4", got)
	}
	if got := iqrShare([]float64{10, 10, 10}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

// TestSelfTimeWithOverlappingChildren: two children that overlap cover
// their union, not their sum.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "point", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "point", Start: 40, End: 90},
	}}
	self := tr.selfTimes()
	if self["pass"] != 20 || self["point"] != 100 {
		t.Errorf("self times = %v, want pass 20 (100 minus the union 10–90) and point 100", self)
	}
}

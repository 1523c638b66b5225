package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// runConfig is one workload run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	// dir holds the run's artifacts and scratch files (artifacts/perf
	// under the working directory, which git ignores).
	dir string

	// plantOutcome and plantBody corrupt one compared value so the smoke
	// test can see failed_share rise; never set outside tests.
	plantOutcome, plantBody bool
}

// budget is how long the timed section measures.
func (cfg runConfig) budget() time.Duration {
	if cfg.tiny {
		return 0
	}
	return time.Duration(cfg.seconds) * time.Second
}

func (cfg runConfig) tracePath() string {
	return filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")
}

// scratch makes a fresh scratch directory under cfg.dir; the caller
// removes it.
func (cfg runConfig) scratch(name string) (string, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.dir, "tmp-"+name+"-")
}

// result is one workload's outcome: the contract fields plus the
// per-point detail and the first failure reasons.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
}

func newResult(cfg runConfig) *result {
	return &result{Workload: cfg.workload, Trace: cfg.trace}
}

func (r *result) detail(name string, v float64, unit string, n int) {
	if r.Detail == nil {
		r.Detail = map[string]metric{}
	}
	r.Detail[name] = metric{Value: v, Unit: unit, N: n}
}

// runTimings is a run's whole-run timings. They are not part of the
// contract line — no wall-clock figure repeats on this host well enough
// to carry a bound — but every run measures and prints them: the
// untraced run as detail, the traced run as per-layer metrics.
func runTimings(kcyclesPerS float64, passes int, opMS float64, ops int) map[string]metric {
	return map[string]metric{
		"run.sim_kcycles_per_s": {Value: kcyclesPerS, Unit: "kcycles/s", N: passes},
		"run.op_p50_ms":         {Value: opMS, Unit: "ms", N: ops},
		"run.peak_rss_mb":       {Value: peakRSSMB(), Unit: "MB", N: 1},
	}
}

// finish seals the result: the run is correct when no operation failed
// and every declared metric was measured.
func (r *result) finish(ms *metricSet, defs []metricDef, v verdict) {
	r.Metrics = ms.m
	r.Attempted, r.Failed, r.Failures = v.attempted, v.failed, v.reasons
	missing := ms.missing(defs)
	for _, name := range missing {
		r.Failures = append(r.Failures, "metric not measured: "+name)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0 && len(missing) == 0
}

// failedShare is failed ÷ attempted operations.
func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// contractLine is the last line of a single-workload run's stdout.
func (r *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
}

// print writes one "workload metric value unit n" line per metric, in
// the declared order, then failed_share and any failure reasons.
func (r *result) print(w *os.File, defs []metricDef) {
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-8s %-40s %14.4f %-10s n=%d\n", r.Workload, d.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, name := range []string{"run.sim_kcycles_per_s", "run.op_p50_ms", "run.peak_rss_mb"} {
		if m, ok := r.Detail[name]; ok {
			fmt.Fprintf(w, "%-8s %-40s %14.4f %-10s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Fprintf(w, "%-8s %-40s %14.6f %-10s n=%d\n", r.Workload, "failed_share", r.failedShare(), "fraction", r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-8s FAILED %s\n", r.Workload, f)
	}
}

// setupReps is how many times a run sets up; setup_s is their median.
func (cfg runConfig) setupReps() int {
	if cfg.tiny {
		return 2
	}
	return 5
}

// timeSetup runs setup reps times and returns the median CPU
// seconds (user + system, all threads) one set-up costs the process.
// CPU time, because the serve set-up waits on some hundreds of fsyncs
// whose latency on this host has a slow mode 2–5× the usual; what the
// process burns still shows any work moved into set-up. The last
// repetition's products are the ones the timed section uses.
func timeSetup(reps int, setup func() error) (float64, error) {
	var took []time.Duration
	for i := 0; i < reps; i++ {
		start := processCPU()
		if err := setup(); err != nil {
			return 0, err
		}
		took = append(took, processCPU()-start)
	}
	return median(in(time.Second, took)), nil
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's ru_maxrss; each workload runs in its own
// process, so the figure is per workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

package tables

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/scope"
)

// TestWriteReportGolden is the cross-commit half of the byte-identity
// invariant: the kernel-level report must equal the bytes committed in
// testdata. The in-process jobs/stepped gates compare a build
// with itself and cannot see a refactor that moves every mode the same
// way; this can. Regenerate the file only for a deliberate model change.
func TestWriteReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("full-report simulation is too slow under the race detector")
	}
	want, err := os.ReadFile("testdata/report_kernels_n32.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, ReportConfig{RankN: 32, SkipPerfect: true, SkipMethodology: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("kernel report differs from testdata/report_kernels_n32.golden:\n%s", got.Bytes())
	}
}

// envArtifacts runs one sweep — the network ablation, three 32-CE
// prefetched rank updates, which every class of the demo plan touches —
// under env and returns every byte it can be observed through.
func envArtifacts(t *testing.T, env Env) []byte {
	t.Helper()
	rows, err := RunNetworkAblation(env, 32)
	if err != nil {
		t.Error(err)
		return nil
	}
	out := bytes.NewBufferString(rows.Format())
	if err := json.NewEncoder(out).Encode(rows); err != nil {
		t.Error(err)
	}
	if env.Hub != nil {
		if err := env.Hub.WriteChromeTrace(out); err != nil {
			t.Error(err)
		}
		if err := env.Hub.WriteMetricsCSV(out); err != nil {
			t.Error(err)
		}
	}
	return out.Bytes()
}

// TestTwoEnvsAtOnce: three run configurations in one process at the same
// time — the demo plan at jobs 1, a healthy run at jobs 4 and a healthy
// run on the stepped engine — on the same sweep. Each produces exactly
// the bytes of its solo run, and the stepped run the event run's bytes:
// nothing a run executes under is process-wide, the engine schedule
// included. It runs under -race on purpose.
func TestTwoEnvsAtOnce(t *testing.T) {
	names := []string{"faulted jobs-1", "healthy jobs-4", "healthy stepped"}
	for _, observed := range []bool{false, true} {
		envs := func() []Env {
			e := []Env{{Faults: fault.DemoPlan(), Jobs: 1}, {Jobs: 4}, {Jobs: 2, Stepped: true}}
			for i := range e {
				if observed {
					e[i].Hub = scope.NewHub()
				}
			}
			return e
		}
		solo := make([][]byte, len(names))
		for i, env := range envs() {
			solo[i] = envArtifacts(t, env)
		}
		if bytes.Equal(solo[0], solo[1]) {
			t.Fatalf("observed=%v: the demo plan left no mark on the sweep", observed)
		}
		together := make([][]byte, len(names))
		var wg sync.WaitGroup
		for i, env := range envs() {
			wg.Add(1)
			go func(i int, env Env) {
				defer wg.Done()
				together[i] = envArtifacts(t, env)
			}(i, env)
		}
		wg.Wait()
		for i, name := range names {
			if !bytes.Equal(together[i], solo[i]) {
				t.Errorf("observed=%v: %s run differs from its solo run:\n%s\nvs solo\n%s",
					observed, name, together[i], solo[i])
			}
		}
		if !bytes.Equal(together[2], together[1]) {
			t.Errorf("observed=%v: stepped run beside an event run differs from it:\n%s\nvs event\n%s",
				observed, together[2], together[1])
		}
	}
}

// TestHealthyEnvAfterFaultedEnv: a healthy Env after faulted ones — a
// hopeless plan that degrades every point, a surviving plan with slower
// rows — produces exactly the solo healthy bytes: a plan lives in the Env
// that names it and nowhere else.
func TestHealthyEnvAfterFaultedEnv(t *testing.T) {
	healthySolo := envArtifacts(t, Env{})

	hopeless := &fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.PFUNack, Module: -1, Rate: 1}}}
	if _, err := RunNetworkAblation(Env{Faults: hopeless}, 32); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("all-NACK plan: err = %v, want ErrDegraded", err)
	}
	faulted := envArtifacts(t, Env{Faults: fault.DemoPlan()})
	healthy := envArtifacts(t, Env{})
	if !bytes.Equal(healthy, healthySolo) {
		t.Errorf("healthy Env after faulted Envs:\n%s\nwant the solo healthy bytes:\n%s", healthy, healthySolo)
	}
	if bytes.Equal(faulted, healthySolo) {
		t.Error("demo-plan Env produced the healthy bytes")
	}
}

// TestFaultedEnvReachesEveryExperiment: every catalogue entry builds its
// machines under the Env's plan and engine — no experiment bypasses the
// sweep helper or forgets either. The degraded table is the deliberate
// exception for the plan only: its scenarios name their own, so its
// healthy row stays healthy under a faulted Env (TestFaultedRunDeterministic
// checks that row really runs clean) and the Env's plan is one more row.
func TestFaultedEnvReachesEveryExperiment(t *testing.T) {
	builds := func(e Experiment, env Env) []build {
		var got []build
		env.audit = &got
		_, err := e.Run(env, Sizes{RankN: 32, Table2Small: true, MemBWWords: 64})
		if !errors.Is(err, errAudited) || len(got) == 0 {
			t.Fatalf("%s: audit err = %v with %d builds; the experiment does not go through sweep", e.Name, err, len(got))
		}
		return got
	}
	plan := fault.DemoPlan()
	for _, e := range catalogue {
		healthy, faulted := builds(e, Env{}), builds(e, Env{Faults: plan, Stepped: true})
		for i, b := range healthy {
			if b.opt.Stepped || (b.opt.Faults != nil && e.Name != "degraded") {
				t.Errorf("%s: point %d (%s) of the zero Env builds with %+v", e.Name, i, b.scope, b.opt)
			}
		}
		for i, b := range faulted {
			if !b.opt.Stepped {
				t.Errorf("%s: point %d (%s) ignores the Env's engine", e.Name, i, b.scope)
			}
			if b.opt.Faults != plan && e.Name != "degraded" {
				t.Errorf("%s: point %d (%s) ignores the Env's plan", e.Name, i, b.scope)
			}
		}
		if e.Name != "degraded" {
			continue
		}
		if faulted[0].opt.Faults != nil {
			t.Error("degraded: the healthy scenario follows the Env's plan")
		}
		if len(faulted) != len(healthy)+1 || faulted[len(faulted)-1].opt.Faults != plan {
			t.Errorf("degraded: %d scenarios under a faulted Env, want the built-in %d plus the Env's plan", len(faulted), len(healthy))
		}
	}
}

package tables

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/fleet"
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

// TestTwoEnvsAtOnce: two run configurations in one process at the same
// time — the demo plan at jobs 1 and a healthy run at jobs 4, on the
// same sweep and (unobserved) the same shared run cache — each produce
// exactly the bytes of their solo run: nothing a run executes under is
// process-wide. It runs under -race on purpose.
func TestTwoEnvsAtOnce(t *testing.T) {
	for _, observed := range []bool{false, true} {
		envs := func() []Env {
			e := []Env{{Faults: fault.DemoPlan(), Jobs: 1}, {Jobs: 4}}
			for i := range e {
				if observed {
					e[i].Hub = scope.NewHub()
				}
			}
			return e
		}
		var solo [2][]byte
		for i, env := range envs() {
			fleet.ResetCache()
			solo[i] = envArtifacts(t, env)
		}
		if bytes.Equal(solo[0], solo[1]) {
			t.Fatalf("observed=%v: the demo plan left no mark on the sweep", observed)
		}
		fleet.ResetCache()
		var together [2][]byte
		var wg sync.WaitGroup
		for i, env := range envs() {
			wg.Add(1)
			go func(i int, env Env) {
				defer wg.Done()
				together[i] = envArtifacts(t, env)
			}(i, env)
		}
		wg.Wait()
		for i, name := range []string{"faulted jobs-1", "healthy jobs-4"} {
			if !bytes.Equal(together[i], solo[i]) {
				t.Errorf("observed=%v: %s run differs from its solo run:\n%s\nvs solo\n%s",
					observed, name, together[i], solo[i])
			}
		}
	}
}

// TestHealthyEnvAfterFaultedEnv: on one sweep and one cache, a healthy
// Env after a faulted one never sees the faulted entries — not the
// degraded error a hopeless plan caches, not a surviving plan's slower
// rows — because the plan fingerprint is part of every sweep key.
func TestHealthyEnvAfterFaultedEnv(t *testing.T) {
	fleet.ResetCache()
	healthySolo := envArtifacts(t, Env{})

	fleet.ResetCache()
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

// TestFaultedEnvReachesEveryExperiment: every catalogue entry keys (and
// therefore builds) its machines under the Env's plan — no experiment
// bypasses the sweep helper or forgets the plan. The degraded table is
// the deliberate exception in one row only: its scenarios name their own
// plans, so its healthy row keeps the healthy key under a faulted Env
// (TestFaultedRunDeterministic checks that row really runs clean).
func TestFaultedEnvReachesEveryExperiment(t *testing.T) {
	keys := func(e Experiment, plan *fault.Plan) []string {
		var got []string
		_, err := e.Run(Env{Faults: plan, audit: &got}, Sizes{RankN: 32, Table2Small: true, MemBWWords: 64})
		if !errors.Is(err, errAudited) || len(got) == 0 {
			t.Fatalf("%s: audit err = %v with %d keys; the experiment does not go through sweep", e.Name, err, len(got))
		}
		return got
	}
	for _, e := range catalogue {
		healthy, faulted := keys(e, nil), keys(e, fault.DemoPlan())
		if e.Name == "degraded" {
			if healthy[0] != faulted[0] {
				t.Error("degraded: the healthy scenario's key follows the Env's plan")
			}
			if len(faulted) != len(healthy)+1 {
				t.Errorf("degraded: %d scenarios under a faulted Env, want the built-in %d plus the Env's plan", len(faulted), len(healthy))
			}
			continue
		}
		seen := map[string]bool{}
		for _, k := range healthy {
			seen[k] = true
		}
		for i, k := range faulted {
			if seen[k] {
				t.Errorf("%s: point %d has the same key healthy and under the demo plan", e.Name, i)
			}
		}
	}
}

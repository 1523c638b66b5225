package tables

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cedar/internal/bench"
	"cedar/internal/fault"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// envArtifacts runs one sweep — the network ablation, three 32-CE
// prefetched rank updates, which every class of the demo plan touches —
// under env and returns every byte it can be observed through.
func envArtifacts(t *testing.T, env Env) []byte {
	t.Helper()
	rows, err := runOne[NetworkAblation](env, "net", Sizes{RankN: 32})
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
	if _, err := runOne[NetworkAblation](Env{Faults: hopeless}, "net", Sizes{RankN: 32}); !errors.Is(err, fault.ErrDegraded) {
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

// TestOnePointTwoRoutesOneNumber: a catalogue table's row and a bare
// bench.RunSpec of the same point — reached through tables and through the
// campaign vocabulary — agree, and where the committed smoke baseline
// holds the point too (cedar/rank48-pref/healthy: the prefetched rank-64
// update of order 48 on the default machine), so does the number from
// disk.
func TestOnePointTwoRoutesOneNumber(t *testing.T) {
	art, err := bench.ReadArtifact("../../bench/BENCH_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// row runs the catalogue's route and returns the row's cycles and
		// MFLOPS.
		row      func() (int64, float64, error)
		workload bench.WorkloadSpec
		// smoke is the committed smoke baseline's ID for the point, if any.
		smoke string
	}{
		{"net/omega-2w", func() (int64, float64, error) {
			rows, err := runOne[NetworkAblation](Env{}, "net", Sizes{RankN: 48})
			if err != nil || rows[0].Config != "omega 2-word queues (as built)" {
				return 0, 0, cmp.Or(err, fmt.Errorf("row 0 is %q", rows[0].Config))
			}
			return -1, rows[0].MFLOPS, nil // the table keeps no cycles
		}, bench.WorkloadSpec{Kind: "rank", N: 48, Variant: "pref"}, "cedar/rank48-pref/healthy"},
		{"perfect/QCD/Automatable", func() (int64, float64, error) {
			s := Sizes{Codes: []perfect.Profile{perfect.QCD()}}
			outs, err := sweep(Env{}, suitePoints(Env{}, s), false)
			if err != nil {
				return 0, 0, err
			}
			o := suiteResult(s, outs).Auto["QCD"]
			return o.SimCycles, o.MFLOPS, nil
		}, bench.WorkloadSpec{Kind: "perfect", Code: "QCD", Variant: "auto"}, ""},
		{"overheads/fetch-lib-64", func() (int64, float64, error) {
			outs, err := sweep(Env{}, overheadsPoints(Env{}, Sizes{})[1:2], false)
			return outs[0].Cycles, outs[0].MFLOPS, err
		}, bench.WorkloadSpec{Kind: "xdoall", N: 64, MaxCEs: 1, Variant: "empty", Sched: "self", NoSync: true}, ""},
	} {
		cycles, mflops, err := tc.row()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out, err := bench.RunSpec(bench.MachineSpec{}, tc.workload, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (cycles >= 0 && cycles != out.SimCycles) || mflops != out.MFLOPS {
			t.Errorf("%s: catalogue %d cycles, %v MFLOPS; RunSpec %d, %v: one point, two numbers",
				tc.name, cycles, mflops, out.SimCycles, out.MFLOPS)
		}
		if tc.smoke == "" {
			continue
		}
		i := slices.IndexFunc(art.Deterministic.Points, func(p bench.PointResult) bool { return p.ID == tc.smoke })
		if i < 0 {
			t.Errorf("bench/BENCH_smoke.json has no point %s", tc.smoke)
		} else if pt := art.Deterministic.Points[i]; pt.SimCycles != out.SimCycles || pt.MFLOPS != out.MFLOPS {
			t.Errorf("%s: RunSpec %d cycles, %v MFLOPS; committed smoke baseline %d, %v",
				tc.name, out.SimCycles, out.MFLOPS, pt.SimCycles, pt.MFLOPS)
		}
	}
}

// smallSizes are the catalogue's sizes in the tests that read its points.
var smallSizes = Sizes{RankN: 32, MemBWWords: 64, Codes: []perfect.Profile{perfect.QCD(), perfect.TRACK()}}

// TestCatalogueSpeaksCampaignVocabulary: every catalogue experiment's
// points, read as data. Every point is a valid cedarbench/cedarserve spec
// on a valid machine; scope names are unique within an experiment and
// start with its namespace, the prefix cedarsim -json slices an
// experiment's metrics by; and a shared scope is the same point —
// experiments that list one scope (t3 … fig3 share the Perfect suite's)
// list the same machine, workload and plan under it, which is what lets
// one call simulate it once.
func TestCatalogueSpeaksCampaignVocabulary(t *testing.T) {
	env := Env{Faults: fault.DemoPlan()}
	seen := map[string]point{}
	for _, e := range catalogue {
		pts := e.points(env, smallSizes)
		if len(pts) == 0 {
			t.Errorf("%s: no points", e.Name)
		}
		mine := map[string]bool{}
		for _, pt := range pts {
			if !strings.HasPrefix(pt.scope, e.Namespace()+"/") {
				t.Errorf("%s: point scope %q is outside the experiment's namespace", e.Name, pt.scope)
			}
			if mine[pt.scope] {
				t.Errorf("%s: scope %q names two of its points", e.Name, pt.scope)
			}
			mine[pt.scope] = true
			if prev, ok := seen[pt.scope]; ok && prev.Point != pt.Point {
				t.Errorf("%s: scope %q names a point another experiment lists differently", e.Name, pt.scope)
			}
			seen[pt.scope] = pt
			if err := pt.Validate(); err != nil {
				t.Errorf("%s: %v", pt.scope, err)
			}
		}
	}
}

// TestFaultedEnvReachesEveryExperiment: every point of every catalogue
// entry carries the Env's plan, and sweep builds it under that plan, on
// the Env's engine and in its own namespace of the Env's hub. The degraded
// table is the deliberate exception for the plan only: its scenarios name
// their own, so its healthy row stays healthy under a faulted Env
// (TestFaultedRunDeterministic checks that row really runs clean) and the
// Env's plan is one more row. The plan is read off the points; the build
// is observed by sweeping them with runPoint swapped for Point.Build alone,
// which simulates nothing: an idle machine whose every component is awake
// was registered through sim.Plain, and each scope registers its
// engine.cycle once.
func TestFaultedEnvReachesEveryExperiment(t *testing.T) {
	defer func(run func(bench.Point, *scope.Hub, bool) (bench.PointOutcome, error)) { runPoint = run }(runPoint)
	var mu sync.Mutex
	var builds []string
	runPoint = func(pt bench.Point, hub *scope.Hub, stepped bool) (bench.PointOutcome, error) {
		m, err := pt.Build(hub, stepped)
		if err != nil {
			return bench.PointOutcome{}, err
		}
		mu.Lock()
		defer mu.Unlock()
		builds = append(builds, fmt.Sprintf("stepped=%v injector=%v",
			len(m.Engine.AwakeComponents()) == m.Engine.Components(), m.Faults != nil))
		return bench.PointOutcome{Status: "ok"}, nil
	}
	plan := fault.DemoPlan()
	probed := func(e Experiment, env Env) []point {
		env.Hub = scope.NewHub()
		builds = nil
		pts := e.points(env, smallSizes)
		if _, err := sweep(env, pts, false); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		var want []string
		for _, pt := range pts {
			want = append(want, fmt.Sprintf("stepped=%v injector=%v", env.Stepped, pt.Plan != nil))
			if got := len(env.Hub.SnapshotUnder(pt.scope + "/engine.cycle")); got != 1 {
				t.Errorf("%s: %s registered engine.cycle %d times", e.Name, pt.scope, got)
			}
		}
		slices.Sort(builds)
		slices.Sort(want)
		if !slices.Equal(builds, want) {
			t.Errorf("%s under stepped=%v: built %v, want %v", e.Name, env.Stepped, builds, want)
		}
		for _, m := range env.Hub.Snapshot() {
			if strings.Contains(m.Name, "#") {
				t.Errorf("%s: metric %s registered twice", e.Name, m.Name)
			}
		}
		return pts
	}
	for _, e := range catalogue {
		healthy, faulted := probed(e, Env{}), probed(e, Env{Faults: plan, Stepped: true})
		for _, pt := range healthy {
			if pt.Plan != nil && e.Name != "degraded" {
				t.Errorf("%s: %s runs under a plan in the zero Env", e.Name, pt.scope)
			}
		}
		for _, pt := range faulted {
			if pt.Plan != plan && e.Name != "degraded" {
				t.Errorf("%s: %s ignores the Env's plan", e.Name, pt.scope)
			}
		}
		if e.Name != "degraded" {
			continue
		}
		if faulted[0].Plan != nil {
			t.Error("degraded: the healthy scenario follows the Env's plan")
		}
		if len(faulted) != len(healthy)+1 || faulted[len(faulted)-1].Plan != plan {
			t.Errorf("degraded: %d scenarios under a faulted Env, want the built-in %d plus the Env's plan", len(faulted), len(healthy))
		}
	}
}

// TestUnfitPointFailsBeforeSimulating: on a two-cluster Env (16 CEs) the
// whole evaluation lists membw's 32-CE streams, so RunAll fails naming the
// first of them and the need before any point runs — with runPoint
// substituted, nothing may reach it — while the as-built machine hosts
// the whole evaluation.
func TestUnfitPointFailsBeforeSimulating(t *testing.T) {
	defer func(run func(bench.Point, *scope.Hub, bool) (bench.PointOutcome, error)) { runPoint = run }(runPoint)
	var ran sync.Once
	runPoint = func(pt bench.Point, _ *scope.Hub, _ bool) (bench.PointOutcome, error) {
		ran.Do(func() { t.Errorf("point %s/%s ran", pt.Machine.Name, pt.Workload.Kind) })
		return bench.PointOutcome{Status: "ok"}, nil
	}
	exps, err := Experiments(Evaluation...)
	if err != nil {
		t.Fatal(err)
	}
	const want = "membw/32ce/stride1 needs 32 CEs; the machine has 16"
	err = RunAll(Env{Jobs: 1, Clusters: 2}, smallSizes, exps, func(Experiment, Result) error { return nil })
	if err == nil || err.Error() != want {
		t.Errorf("RunAll on two clusters: %v, want %q", err, want)
	}
	if err := Fit(Env{}, smallSizes, exps); err != nil {
		t.Errorf("the as-built machine cannot host the evaluation: %v", err)
	}
}

// TestEveryWidthFitsOrFailsByName is the catalogue's width table: at each
// -clusters width cedarsim offers or a user may type, under the demo plan,
// Fit on the whole evaluation plus degraded either refuses naming one
// point it lists, or admits every point, and then each one passes
// Point.Validate and builds. Nothing simulates.
func TestEveryWidthFitsOrFailsByName(t *testing.T) {
	exps, err := Experiments(append(Evaluation[:len(Evaluation):len(Evaluation)], "degraded")...)
	if err != nil {
		t.Fatal(err)
	}
	sizes := Sizes{Table2Full: true, MemBWWords: 4096, FullPPT4: true}
	for _, width := range []int{1, 2, 3, 4, 8, 16, 64} {
		env := Env{Clusters: width, Faults: fault.DemoPlan()}
		var pts []point
		for _, e := range exps {
			pts = append(pts, e.points(env, sizes.resolved())...)
		}
		if err := Fit(env, sizes, exps); err != nil {
			if !slices.ContainsFunc(pts, func(pt point) bool { return strings.HasPrefix(err.Error(), pt.scope+" ") }) {
				t.Errorf("-clusters %d: %q names none of the %d points", width, err, len(pts))
			}
			t.Logf("-clusters %d: %v", width, err)
			continue
		}
		for _, pt := range pts {
			if err := pt.Validate(); err != nil {
				t.Errorf("-clusters %d: Fit admitted %s, which Validate refuses: %v", width, pt.scope, err)
			} else if _, err := pt.Build(nil, false); err != nil {
				t.Errorf("-clusters %d: %s does not build: %v", width, pt.scope, err)
			}
		}
		t.Logf("-clusters %d: %d points admitted and built", width, len(pts))
	}
}

package tables

import (
	"strings"
	"sync"
	"testing"

	"cedar/internal/bench"
	"cedar/internal/core"
	"cedar/internal/kernels"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// TestSuiteRunsAllVariants: the suite's points give every code its five
// versions, and a hand version exactly where Table 4 has one — read off
// the assembly, without simulating.
func TestSuiteRunsAllVariants(t *testing.T) {
	res := suiteResult(Sizes{}, make([]bench.PointOutcome, len(suiteRuns(Sizes{}))))
	for _, p := range perfect.All() {
		for v, m := range []map[string]perfect.Outcome{res.Serial, res.KAP, res.Auto, res.NoSync, res.NoPref, res.Hand} {
			if _, ok := m[p.Name]; ok != (v < 5 || perfect.HandOptimized()[p.Name]) {
				t.Errorf("%s: %s outcome %v", p.Name, label(suiteVersions[v]), ok)
			}
		}
	}
}

// TestSharedPointsSimulateOnce: t3, t4, t5, t6 and fig3 run in one call
// under a hub dispatch each of the suite's points once — the later four
// reuse t3's outcomes — so every perfect/… metric is registered once, none
// with a #2 suffix; and each table is the one the suite's own run builds.
func TestSharedPointsSimulateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("Perfect suite simulation is too slow under the race detector")
	}
	exps, err := Experiments("t3", "t4", "t5", "t6", "fig3")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dispatched := map[string]int{}
	for i := range exps {
		points := exps[i].points
		exps[i].points = func(env Env, s Sizes) []point {
			pts := points(env, s)
			for j := range pts {
				name, program := pts[j].scope, pts[j].program
				pts[j].program = func(m *core.Machine) (kernels.Result, error) {
					mu.Lock()
					dispatched[name]++
					mu.Unlock()
					return program(m)
				}
			}
			return pts
		}
	}
	sizes := Sizes{Codes: []perfect.Profile{perfect.QCD(), perfect.TRACK()}}
	hub := scope.NewHub()
	var got []string
	err = RunAll(Env{Hub: hub}, sizes, exps, func(_ Experiment, res Result) error {
		got = append(got, res.Format())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := suitePoints(Env{}, sizes)
	for _, pt := range pts {
		if dispatched[pt.scope] != 1 {
			t.Errorf("%s dispatched %d times, want once", pt.scope, dispatched[pt.scope])
		}
	}
	if len(dispatched) != len(pts) {
		t.Errorf("%d scopes dispatched, want the suite's %d", len(dispatched), len(pts))
	}
	registered := 0
	for _, m := range hub.Snapshot() {
		if strings.HasPrefix(m.Name, "perfect/") {
			registered++
			if strings.Contains(m.Name, "#") {
				t.Errorf("metric %s registered twice", m.Name)
			}
		}
	}
	if registered == 0 {
		t.Error("the hub saw no perfect/… metric")
	}

	suite, err := RunSuite(Env{}, sizes.Codes)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Result{BuildTable3(suite), BuildTable4(suite), BuildTable5(suite), BuildTable6(suite), BuildFigure3(suite)} {
		if got[i] != want.Format() {
			t.Errorf("%s from the shared points:\n%s\nwant the suite's own:\n%s", exps[i].Name, got[i], want.Format())
		}
	}
}

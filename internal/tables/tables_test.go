package tables

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cedar/internal/bench"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// runOne runs the named catalogue entry alone through RunAll and returns
// its result as the entry's concrete type.
func runOne[R Result](env Env, name string, s Sizes) (r R, err error) {
	exps, err := Experiments(name)
	if err != nil {
		return r, err
	}
	err = RunAll(env, s, exps, func(_ Experiment, res Result) error {
		r = res.(R)
		return nil
	})
	return r, err
}

// TestSuiteRunsAllVariants: the suite's points give every code its five
// versions, and a hand version exactly where Table 4 has one — read off
// the assembly, without simulating.
func TestSuiteRunsAllVariants(t *testing.T) {
	res := suiteResult(Sizes{}, make([]bench.PointOutcome, len(suiteRuns(Sizes{}))))
	for _, p := range perfect.All() {
		for v, m := range []map[string]perfect.Outcome{res.Serial, res.KAP, res.Auto, res.NoSync, res.NoPref, res.Hand} {
			if _, ok := m[p.Name]; ok != (v < 5 || perfect.HandOptimized()[p.Name]) {
				t.Errorf("%s: %s outcome %v", p.Name, suiteVersions[v], ok)
			}
		}
	}
}

// TestSharedPointsSimulateOnce: t3, t4, t5, t6 and fig3 run in one call
// under a hub build each of the suite's points once — the later four reuse
// t3's outcomes — so every point's engine.cycle is registered once and no
// perfect/… metric carries a #2 suffix; and sharing is invisible: each
// table is the one its entry makes when it runs alone.
func TestSharedPointsSimulateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("Perfect suite simulation is too slow under the race detector")
	}
	exps, err := Experiments("t3", "t4", "t5", "t6", "fig3")
	if err != nil {
		t.Fatal(err)
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
		if got := len(hub.SnapshotUnder(pt.scope + "/engine.cycle")); got != 1 {
			t.Errorf("%s registered engine.cycle %d times, want once", pt.scope, got)
		}
	}
	cycles := 0
	for _, m := range hub.Snapshot() {
		if strings.Contains(m.Name, "#") {
			t.Errorf("metric %s registered twice", m.Name)
		}
		if strings.HasSuffix(m.Name, "/engine.cycle") {
			cycles++
		}
	}
	if cycles != len(pts) {
		t.Errorf("%d machines registered under the hub, want the suite's %d", cycles, len(pts))
	}

	for i, e := range exps {
		alone, err := runOne[Result](Env{}, e.Name, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if want := alone.Format(); got[i] != want {
			t.Errorf("%s from the shared points:\n%s\nwant the entry's own run:\n%s", e.Name, got[i], want)
		}
	}
}

// TestZeroSizesNameOneSize: a zero size runs at its default everywhere it
// shows. t1 run at Sizes{} titles its section, records its result and
// simulates every rank update at one order, and that order is a real one
// — not a zero the rank kind would replace with its own. Read off the
// points sweep is handed, with runPoint substituted so nothing simulates.
func TestZeroSizesNameOneSize(t *testing.T) {
	defer func(run func(bench.Point, *scope.Hub, bool) (bench.PointOutcome, error)) { runPoint = run }(runPoint)
	var mu sync.Mutex
	var orders []int
	runPoint = func(pt bench.Point, _ *scope.Hub, _ bool) (bench.PointOutcome, error) {
		mu.Lock()
		defer mu.Unlock()
		orders = append(orders, pt.Workload.N)
		return bench.PointOutcome{Status: "ok"}, nil
	}
	exps, err := Experiments("t1")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = RunAll(Env{Jobs: 1}, Sizes{}, exps, func(_ Experiment, res Result) error {
		n = res.(*Table1Result).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("Table1Result.N = %d at zero sizes, want the default order", n)
	}
	if title, want := exps[0].Title(Sizes{}), fmt.Sprintf("(n=%d)", n); !strings.HasSuffix(title, want) {
		t.Errorf("title %q, want it to name the result's order %s", title, want)
	}
	if len(orders) == 0 {
		t.Fatal("t1 simulated no point")
	}
	for _, order := range orders {
		if order != n {
			t.Errorf("a point simulates order %d, the result records %d", order, n)
		}
	}
}

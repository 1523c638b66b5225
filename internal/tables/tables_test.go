package tables

import (
	"strings"
	"testing"

	"cedar/internal/bench"
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
				t.Errorf("%s: %s outcome %v", p.Name, suiteVersions[v], ok)
			}
		}
	}
}

// TestSharedPointsSimulateOnce: t3, t4, t5, t6 and fig3 run in one call
// under a hub build each of the suite's points once — the later four reuse
// t3's outcomes — so every point's engine.cycle is registered once and no
// perfect/… metric carries a #2 suffix; and each table is the one the
// suite's own run builds.
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

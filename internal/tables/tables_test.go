package tables

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cedar/internal/core"
	"cedar/internal/kernels"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
	"cedar/internal/scope"
)

// smallSuite runs a 3-code suite once per test binary invocation.
var smallSuiteCache *SuiteResult

func smallSuite(t *testing.T) *SuiteResult {
	t.Helper()
	if raceEnabled {
		t.Skip("Perfect suite simulation is too slow under the race detector")
	}
	if smallSuiteCache != nil {
		return smallSuiteCache
	}
	s, err := RunSuite(Env{}, []perfect.Profile{perfect.ARC2D(), perfect.QCD(), perfect.SPICE()})
	if err != nil {
		t.Fatal(err)
	}
	smallSuiteCache = s
	return s
}

func TestSuiteRunsAllVariants(t *testing.T) {
	s := smallSuite(t)
	for _, name := range []string{"ARC2D", "QCD", "SPICE"} {
		for label, m := range map[string]map[string]perfect.Outcome{
			"serial": s.Serial, "kap": s.KAP, "auto": s.Auto,
			"nosync": s.NoSync, "nopref": s.NoPref,
		} {
			if _, ok := m[name]; !ok {
				t.Errorf("%s missing %s outcome", name, label)
			}
		}
		if _, ok := s.Hand[name]; !ok {
			t.Errorf("%s missing hand outcome (all three have Table 4 versions)", name)
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

func TestTable3Structure(t *testing.T) {
	s := smallSuite(t)
	t3 := BuildTable3(s)
	if len(t3.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(t3.Rows))
	}
	for _, r := range t3.Rows {
		if r.SerialSec <= 0 || r.MFLOPS <= 0 {
			t.Errorf("%s: non-positive entries: %+v", r.Code, r)
		}
		if r.AutoSpeedup < r.KAPSpeedup*0.9 {
			t.Errorf("%s: automatable (%.1f) worse than KAP (%.1f)", r.Code, r.AutoSpeedup, r.KAPSpeedup)
		}
		if r.NoSyncSpeedup > r.AutoSpeedup*1.05 {
			t.Errorf("%s: removing Cedar sync improved speedup %.1f > %.1f", r.Code, r.NoSyncSpeedup, r.AutoSpeedup)
		}
		if r.NoPrefSpeedup > r.NoSyncSpeedup*1.05 {
			t.Errorf("%s: removing prefetch improved speedup", r.Code)
		}
	}
	// ARC2D is the strong code; SPICE the weak one.
	byName := map[string]Table3Row{}
	for _, r := range t3.Rows {
		byName[r.Code] = r
	}
	if byName["ARC2D"].AutoSpeedup <= byName["SPICE"].AutoSpeedup {
		t.Error("ARC2D should outrun SPICE")
	}
	if !strings.Contains(t3.Format(), "harmonic") {
		t.Error("format should include the harmonic-mean summary")
	}
}

func TestTable4Structure(t *testing.T) {
	s := smallSuite(t)
	rows := BuildTable4(s)
	if len(rows) != 3 {
		t.Fatalf("%d hand rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Improvement < 1 {
			t.Errorf("%s: hand version slower than automatable (%.2f)", r.Code, r.Improvement)
		}
	}
	if out := rows.Format(); !strings.Contains(out, "QCD") {
		t.Error("format lost a code")
	}
}

func TestTable5And6Structure(t *testing.T) {
	s := smallSuite(t)
	t5 := BuildTable5(s)
	for _, sys := range t5.Systems {
		in := t5.In[sys]
		// In(K, e) is non-increasing in e; entries with e ≥ K are +Inf
		// markers (only 3 codes in the small suite) and are skipped.
		for i := 1; i < len(in); i++ {
			if math.IsInf(in[i], 1) {
				continue
			}
			if in[i-1] < in[i] {
				t.Errorf("%s: instability not non-increasing in e: %v", sys, in)
			}
		}
	}
	t6 := BuildTable6(s)
	if t6.CedarHigh+t6.CedarInter+t6.CedarUnacc != 3 {
		t.Errorf("Cedar band counts don't sum: %+v", t6)
	}
	if t6.YMPHigh+t6.YMPInter+t6.YMPUnacc != 3 {
		t.Errorf("YMP band counts don't sum: %+v", t6)
	}
	if !strings.Contains(t5.Format(), "In(13,0)") || !strings.Contains(t6.Format(), "High") {
		t.Error("formats incomplete")
	}
}

func TestFigure3Structure(t *testing.T) {
	s := smallSuite(t)
	f := BuildFigure3(s)
	if len(f.Points) != 3 {
		t.Fatalf("%d points, want 3", len(f.Points))
	}
	for _, p := range f.Points {
		if p.CedarEff < 0 || p.CedarEff > 1.2 || p.YMPEff < 0 || p.YMPEff > 1.2 {
			t.Errorf("%s: implausible efficiencies %+v", p.Code, p)
		}
		if !p.Hand {
			t.Errorf("%s: should use a hand version", p.Code)
		}
	}
	out := f.Format()
	if !strings.Contains(out, "Cedar eff.") || !strings.Contains(out, "*") {
		t.Error("scatter plot missing")
	}
}

func TestTable1SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 sweep in -short mode")
	}
	t1, err := RunTable1(Env{}, 96)
	if err != nil {
		t.Fatal(err)
	}
	// Structural facts from the paper that survive small matrices:
	// prefetch and cache beat no-pref everywhere; no-pref scales linearly.
	for c := 0; c < 4; c++ {
		if t1.MFLOPS[1][c] <= t1.MFLOPS[0][c] {
			t.Errorf("clusters=%d: prefetch (%.1f) not faster than no-pref (%.1f)",
				c+1, t1.MFLOPS[1][c], t1.MFLOPS[0][c])
		}
		if t1.MFLOPS[2][c] <= t1.MFLOPS[0][c] {
			t.Errorf("clusters=%d: cache (%.1f) not faster than no-pref (%.1f)",
				c+1, t1.MFLOPS[2][c], t1.MFLOPS[0][c])
		}
	}
	if lin := t1.MFLOPS[0][3] / t1.MFLOPS[0][0]; lin < 3.5 || lin > 4.5 {
		t.Errorf("no-pref 1→4 cluster scaling %.2f, want ≈4 (latency-bound)", lin)
	}
	if !strings.Contains(t1.Format(), "GM/cache") {
		t.Error("format incomplete")
	}
}

func TestTable2SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 sweep in -short mode")
	}
	t2, err := RunTable2(Env{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range t2.Kernels {
		// Latency can only grow with CE count; floors hold.
		if t2.Latency[k][8] < 8 {
			t.Errorf("%s: latency %.1f below hardware floor", k, t2.Latency[k][8])
		}
		if t2.Inter[k][8] < 1 {
			t.Errorf("%s: interarrival %.2f below floor", k, t2.Inter[k][8])
		}
		if t2.Latency[k][32] < t2.Latency[k][8] {
			t.Errorf("%s: latency fell with more CEs (%.1f → %.1f)",
				k, t2.Latency[k][8], t2.Latency[k][32])
		}
		if t2.Blocks[k][8] == 0 {
			t.Errorf("%s: no blocks monitored", k)
		}
	}
	if !strings.Contains(t2.Format(), "lat@32") {
		t.Error("format incomplete")
	}
}

func TestOverheadsMatchPaper(t *testing.T) {
	ov, err := RunOverheads(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if ov.XDoallStartupUS < 75 || ov.XDoallStartupUS > 115 {
		t.Errorf("XDOALL startup %.1f µs, want ≈90", ov.XDoallStartupUS)
	}
	if ov.FetchNoSyncUS < 20 || ov.FetchNoSyncUS > 45 {
		t.Errorf("iteration fetch %.1f µs, want ≈30", ov.FetchNoSyncUS)
	}
	if ov.FetchCedarSyncUS >= ov.FetchNoSyncUS/2 {
		t.Errorf("Cedar-sync fetch %.1f µs should be far below the library path %.1f",
			ov.FetchCedarSyncUS, ov.FetchNoSyncUS)
	}
	if ov.CDoallStartUS < 1 || ov.CDoallStartUS > 10 {
		t.Errorf("CDOALL start %.1f µs, want a few µs", ov.CDoallStartUS)
	}
}

func TestNetworkAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := RunNetworkAblation(Env{}, 96)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The [Turn93] claim: relief comes from fixing implementation
	// constraints, so the as-built configuration must not beat the
	// deeper-queue or ideal fabrics.
	asBuilt, deep, xbar := rows[0], rows[1], rows[2]
	if asBuilt.MFLOPS > deep.MFLOPS*1.05 {
		t.Errorf("deeper queues slower than as-built: %.1f vs %.1f", deep.MFLOPS, asBuilt.MFLOPS)
	}
	if asBuilt.MFLOPS > xbar.MFLOPS*1.05 {
		t.Errorf("ideal crossbar slower than as-built: %.1f vs %.1f", xbar.MFLOPS, asBuilt.MFLOPS)
	}
	if !strings.Contains(rows.Format(), "Turn93") {
		t.Error("format incomplete")
	}
}

func TestPrefetchBlockAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := RunPrefetchBlockAblation(Env{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Block != 0 {
		t.Fatal("first row should be no-prefetch")
	}
	for _, r := range rows[1:] {
		if r.MFLOPS <= rows[0].MFLOPS*1.5 {
			t.Errorf("block %d (%.1f) not clearly faster than no prefetch (%.1f)",
				r.Block, r.MFLOPS, rows[0].MFLOPS)
		}
	}
	// Under a full cluster's contention, ever-larger blocks stop paying
	// (the paper: RK, with the longest blocks and full overlap, degrades
	// most quickly); we only require diminishing, not negative, returns
	// to stay robust to calibration.
	if rows[len(rows)-1].MFLOPS < rows[1].MFLOPS*0.5 {
		t.Errorf("512-word blocks (%.1f) collapsed vs 32-word blocks (%.1f)",
			rows[len(rows)-1].MFLOPS, rows[1].MFLOPS)
	}
}

func TestBandMathUsedByTables(t *testing.T) {
	// Spot-check the thresholds the tables rely on.
	if ppt.BandOfEfficiency(0.5, 32) != ppt.High {
		t.Error("0.5 on 32 should be high")
	}
	if ppt.BandOfEfficiency(0.2, 32) != ppt.Intermediate {
		t.Error("0.2 on 32 should be intermediate")
	}
}

func TestSchedulingAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	rows, err := RunSchedulingAblation(Env{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(wl, pol string, sync bool) int64 {
		for _, r := range rows {
			if r.Workload == wl && r.Policy == pol && r.CedarSync == sync {
				return r.Cycles
			}
		}
		t.Fatalf("missing row %s/%s/%v", wl, pol, sync)
		return 0
	}
	// Balanced: static is cheapest (no claims); guided close behind;
	// library-path scheduling is catastrophic.
	if !(get("balanced", "static", true) <= get("balanced", "guided", true)) {
		t.Error("static should win a balanced loop")
	}
	if get("balanced", "self", false) < 10*get("balanced", "self", true) {
		t.Error("library-path self-scheduling should be an order of magnitude slower")
	}
	// Imbalanced: dynamic policies must beat static chunking.
	if !(get("imbalanced", "guided", true) < get("imbalanced", "static", true)) {
		t.Error("guided should beat static on an imbalanced tail")
	}
	if !(get("imbalanced", "self", true) < get("imbalanced", "static", true)) {
		t.Error("self should beat static on an imbalanced tail")
	}
	if !strings.Contains(rows.Format(), "guided") {
		t.Error("format incomplete")
	}
}

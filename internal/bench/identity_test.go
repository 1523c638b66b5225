package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/scope"
)

// TestCampaignsMatchTheCommittedBaselines is the campaigns' cross-commit
// pin and their only gate: each committed campaign, run at its own jobs
// list, encodes exactly as the committed bench/BENCH_<area>.json does,
// whole file, and the smoke campaign run once on the stepped engine has
// the same deterministic section. A mismatch lists every point that
// moved, went or is new, and what moved in each (movedPoints), so a
// deliberate model change reads its per-point diff here, and it names the
// command that re-takes the baseline. It skips under -short and -race.
func TestCampaignsMatchTheCommittedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("committed campaigns in -short mode")
	}
	if raceEnabled {
		t.Skip("committed campaigns are too slow under the race detector")
	}
	root := filepath.Join("..", "..")
	for _, area := range []string{"smoke", "latency", "wide"} {
		config := "bench/campaigns/" + area + ".json"
		baseline := "bench/BENCH_" + area + ".json"
		c, err := Load(filepath.Join(root, config))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(root, baseline))
		if err != nil {
			t.Fatal(err)
		}
		old, err := ReadArtifact(filepath.Join(root, baseline))
		if err != nil {
			t.Fatal(err)
		}
		retake := fmt.Sprintf("for a deliberate model change, re-take it with go run ./cmd/cedarbench run -q -config %s -out %s", config, baseline)
		art, err := Run(c, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			reportMoves(t, area+" campaign", baseline, retake, old, art)
		}
		if area != "smoke" {
			continue
		}
		// One pass is enough: its header names jobs [2], so the stepped run
		// is compared by its deterministic section alone.
		one := *c
		one.Jobs = []int{2}
		stepped, err := Run(&one, RunOptions{Stepped: true})
		if err != nil {
			t.Fatal(err)
		}
		gotDet, err := stepped.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		wantDet, err := old.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDet, wantDet) {
			reportMoves(t, "stepped smoke campaign", baseline, retake, old, stepped)
		}
	}
}

// reportMoves fails the test for the campaign run called name, which
// differs from old, the committed artifact at baseline, listing the
// points that moved.
func reportMoves(t *testing.T, name, baseline, retake string, old, art *Artifact) {
	t.Helper()
	moved := movedPoints(old.Deterministic, art.Deterministic)
	if len(moved) == 0 {
		t.Errorf("%s differs from %s in its header or encoding, in no point; %s", name, baseline, retake)
		return
	}
	t.Errorf("%s differs from %s; %s. Points that moved, went or are new: %d\n\t%s",
		name, baseline, retake, len(moved), strings.Join(moved, "\n\t"))
}

// movedPoints lists what differs between two deterministic sections, one
// line per point, matched by ID: each point that went, each point whose
// record moved (its simcycles, with the change in percent where the old
// count is not zero, a status flip, and the first other field that
// moved: a metric by name, the flops, the fault counters or an
// attribution row), then each new point. It is nil when they are equal.
func movedPoints(old, new Deterministic) []string {
	fresh := make(map[string]PointResult, len(new.Points))
	for _, n := range new.Points {
		fresh[n.ID] = n
	}
	var lines []string
	for _, o := range old.Points {
		n, ok := fresh[o.ID]
		if !ok {
			lines = append(lines, o.ID+": gone")
			continue
		}
		delete(fresh, o.ID)
		var what []string
		if o.SimCycles != n.SimCycles {
			move := fmt.Sprintf("simcycles %d → %d", o.SimCycles, n.SimCycles)
			if o.SimCycles != 0 {
				move += fmt.Sprintf(" (%+.2f%%)", 100*float64(n.SimCycles-o.SimCycles)/float64(o.SimCycles))
			}
			what = append(what, move)
		}
		if o.Status != n.Status {
			what = append(what, fmt.Sprintf("status %q → %q", o.Status, n.Status))
		}
		if other := firstOtherMove(o.Outcome, n.Outcome); other != "" {
			what = append(what, other)
		}
		if len(what) > 0 {
			lines = append(lines, o.ID+": "+strings.Join(what, ", "))
		}
	}
	// New points in new's own order, so the list is stable.
	for _, n := range new.Points {
		if _, ok := fresh[n.ID]; ok {
			lines = append(lines, fmt.Sprintf("%s: new point, simcycles %d", n.ID, n.SimCycles))
		}
	}
	return lines
}

// firstOtherMove names the first field past simcycles and status that
// differs between two outcomes of one point; "" if none does.
func firstOtherMove(o, n Outcome) string {
	for i := range max(len(o.Metrics), len(n.Metrics)) {
		switch {
		case i >= len(n.Metrics):
			return "metric " + o.Metrics[i].Name + " gone"
		case i >= len(o.Metrics), o.Metrics[i].Name != n.Metrics[i].Name:
			return "metric " + n.Metrics[i].Name + " added"
		case o.Metrics[i] != n.Metrics[i]:
			return fmt.Sprintf("metric %s %d → %d", n.Metrics[i].Name, o.Metrics[i].Value, n.Metrics[i].Value)
		}
	}
	switch {
	case o.Flops != n.Flops, o.MFLOPS != n.MFLOPS:
		return fmt.Sprintf("flops %d → %d, mflops %v → %v", o.Flops, n.Flops, o.MFLOPS, n.MFLOPS)
	case o.Faults != n.Faults:
		return fmt.Sprintf("fault counters %+v → %+v", o.Faults, n.Faults)
	}
	for i := range max(len(o.Attribution), len(n.Attribution)) {
		switch {
		case i >= len(n.Attribution):
			return "attribution " + o.Attribution[i].Class + " gone"
		case i >= len(o.Attribution), o.Attribution[i].Class != n.Attribution[i].Class:
			return "attribution " + n.Attribution[i].Class + " added"
		case o.Attribution[i] != n.Attribution[i]:
			a, b := o.Attribution[i], n.Attribution[i]
			return fmt.Sprintf("attribution %s busy/stall/idle %d/%d/%d → %d/%d/%d", a.Class, a.Busy, a.Stall, a.Idle, b.Busy, b.Stall, b.Idle)
		}
	}
	return ""
}

// TestMovedPointsNamesEveryMove pins the list the campaign gate prints:
// one line per point that moved, went or is new, each naming what moved.
func TestMovedPointsNamesEveryMove(t *testing.T) {
	base := func() Deterministic {
		return Deterministic{Points: []PointResult{
			{ID: "m/w1/healthy", Outcome: Outcome{Status: "ok", SimCycles: 1000,
				Metrics:     []scope.Sample{{Name: "gmem.stalls", Kind: "counter", Value: 3}},
				Attribution: []scope.AttrRow{{Class: "ce", Busy: 600, Stall: 300, Idle: 100, Elapsed: 1000}}}},
			{ID: "m/w2/healthy", Outcome: Outcome{Status: "ok", SimCycles: 2000}},
		}}
	}
	for _, tc := range []struct {
		name string
		mut  func(old, new *Deterministic)
		want []string
	}{
		{"no change", func(_, _ *Deterministic) {}, nil},
		{"simcycles move", func(_, n *Deterministic) { n.Points[1].SimCycles = 2001 },
			[]string{"m/w2/healthy: simcycles 2000 → 2001 (+0.05%)"}},
		{"every point moves", func(_, n *Deterministic) { n.Points[0].SimCycles, n.Points[1].SimCycles = 900, 2100 },
			[]string{"m/w1/healthy: simcycles 1000 → 900 (-10.00%)", "m/w2/healthy: simcycles 2000 → 2100 (+5.00%)"}},
		{"zero baseline", func(o, n *Deterministic) { o.Points[1].SimCycles, n.Points[1].SimCycles = 0, 7 },
			[]string{"m/w2/healthy: simcycles 0 → 7"}},
		{"zero to zero", func(o, n *Deterministic) { o.Points[1].SimCycles, n.Points[1].SimCycles = 0, 0 }, nil},
		{"status flip with unchanged cycles", func(_, n *Deterministic) { n.Points[1].Status = "degraded" },
			[]string{`m/w2/healthy: status "ok" → "degraded"`}},
		// An abandoned degraded run stops early: its drop is listed with
		// the flip, never alone.
		{"status flip with fewer cycles", func(_, n *Deterministic) { n.Points[1].SimCycles, n.Points[1].Status = 1500, "degraded" },
			[]string{`m/w2/healthy: simcycles 2000 → 1500 (-25.00%), status "ok" → "degraded"`}},
		{"status flip at a zero baseline", func(o, n *Deterministic) {
			o.Points[1].SimCycles, n.Points[1].SimCycles, n.Points[1].Status = 0, 0, "degraded"
		}, []string{`m/w2/healthy: status "ok" → "degraded"`}},
		{"gone point", func(_, n *Deterministic) { n.Points = n.Points[:1] },
			[]string{"m/w2/healthy: gone"}},
		{"new point", func(_, n *Deterministic) {
			n.Points = append(n.Points, PointResult{ID: "m/w3/healthy", Outcome: Outcome{Status: "ok", SimCycles: 10}})
		}, []string{"m/w3/healthy: new point, simcycles 10"}},
		{"gone and new point", func(_, n *Deterministic) { n.Points[1].ID = "m/w3/healthy" },
			[]string{"m/w2/healthy: gone", "m/w3/healthy: new point, simcycles 2000"}},
		{"metric only", func(_, n *Deterministic) { n.Points[0].Metrics[0].Value = 4 },
			[]string{"m/w1/healthy: metric gmem.stalls 3 → 4"}},
		{"attribution only", func(_, n *Deterministic) { n.Points[0].Attribution[0].Busy, n.Points[0].Attribution[0].Idle = 601, 99 },
			[]string{"m/w1/healthy: attribution ce busy/stall/idle 600/300/100 → 601/300/99"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, n := base(), base()
			tc.mut(&old, &n)
			got := movedPoints(old, n)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
			}
			if s := strings.Join(got, " "); strings.Contains(s, "Inf") || strings.Contains(s, "NaN") {
				t.Errorf("a percentage leaked Inf or NaN: %s", s)
			}
		})
	}
}

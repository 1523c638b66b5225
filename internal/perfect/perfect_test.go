package perfect

import (
	"strings"
	"testing"

	"cedar/internal/params"
)

func TestAllProfilesValid(t *testing.T) {
	codes := All()
	if len(codes) != 13 {
		t.Fatalf("suite has %d codes, want 13", len(codes))
	}
	seen := map[string]bool{}
	for _, p := range codes {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate code %s", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestSelect: a -codes list picks codes in suite order whatever order and
// case it names them in; one unknown name fails the whole list.
func TestSelect(t *testing.T) {
	got, err := Select(" track,QCD")
	if err != nil || len(got) != 2 || got[0].Name != "QCD" || got[1].Name != "TRACK" {
		t.Errorf(`Select(" track,QCD") = %v, %v; want QCD then TRACK`, got, err)
	}
	if all, err := Select(""); err != nil || len(all) != len(All()) {
		t.Errorf(`Select("") = %d codes, %v; want the full suite`, len(all), err)
	}
	if _, err := Select("QCD,TRAK"); err == nil || !strings.Contains(err.Error(), `"TRAK"`) || !strings.Contains(err.Error(), "TRACK") {
		t.Errorf(`Select("QCD,TRAK") err = %v; want it to name TRAK and list the valid codes`, err)
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	p := ADM()
	p.Segments[0].Frac = 0.9 // fractions no longer sum to 1
	if err := p.Validate(); err == nil {
		t.Error("bad fractions accepted")
	}
	p = ADM()
	p.Flops = 0
	if err := p.Validate(); err == nil {
		t.Error("zero flops accepted")
	}
	p = ADM()
	p.Segments[0].Frac = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestSerialVariantRate(t *testing.T) {
	// The serial baseline runs at the scalar rate (≈2 MFLOPS) plus I/O.
	out, err := Run(params.Default(), BDNA(), Spec{Variant: Serial})
	if err != nil {
		t.Fatal(err)
	}
	p := BDNA()
	computeSec := float64(p.Flops) * scalarCPF / (params.CyclesPerSecond)
	// Plus the formatted I/O through the Xylem I/O model (tens of seconds
	// for BDNA's million-word output).
	if out.Seconds < computeSec*1.05 || out.Seconds > computeSec*1.25 {
		t.Errorf("BDNA serial = %.0f s, want compute %.0f plus substantial formatted I/O", out.Seconds, computeSec)
	}
}

// TestPerCodeStories checks the per-code properties the paper (or a
// companion CSRD report) attributes to a code that need a point the
// evaluation never runs; the rest are claims on the tables' catalogue
// entries, checked by cedarsim's report.
func TestPerCodeStories(t *testing.T) {
	if testing.Short() {
		t.Skip("per-code stories in -short mode")
	}
	if raceEnabled {
		t.Skip("per-code story simulations are too slow under the race detector")
	}
	pm := params.Default()

	t.Run("TRFD pays paging only on multiple clusters", func(t *testing.T) {
		four, err := Run(pm, TRFD(), Spec{Variant: Auto})
		if err != nil {
			t.Fatal(err)
		}
		pm1 := pm
		pm1.Clusters = 1
		one, err := Run(pm1, TRFD(), Spec{Variant: Auto})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's point exactly: the multicluster version's TLB storm
		// (≈4× the page faults, near half the time in virtual memory)
		// eats the gain from having four times the processors — which is
		// why the distributed-memory rewrite exists. Multicluster must
		// NOT show healthy scaling here.
		if one.Seconds/four.Seconds > 1.5 {
			t.Errorf("TRFD 4-cluster scaling %.1f× over 1-cluster; the paging penalty should erase it",
				one.Seconds/four.Seconds)
		}
		// The hand (distributed) version beats both.
		hand, err := Run(pm, TRFD(), Spec{Variant: Hand})
		if err != nil {
			t.Fatal(err)
		}
		if hand.Seconds >= four.Seconds || hand.Seconds >= one.Seconds {
			t.Errorf("TRFD hand %.1f s should beat both auto runs (%.1f, %.1f)",
				hand.Seconds, four.Seconds, one.Seconds)
		}
	})
}

func TestSummaryConversion(t *testing.T) {
	s := SPICE().Summary()
	if s.Name != "SPICE" {
		t.Error("name lost")
	}
	if s.Flops >= SPICE().Flops {
		t.Error("FlopFraction not applied to summary flops")
	}
	if s.VecFrac != 0.05 || s.ParAutoFrac != 0.02 {
		t.Error("fractions not carried")
	}
}

func TestHandOptimizedSet(t *testing.T) {
	h := HandOptimized()
	for _, name := range []string{"ARC2D", "BDNA", "FLO52", "DYFESM", "TRFD", "QCD", "SPICE"} {
		if !h[name] {
			t.Errorf("%s missing from hand-optimized set", name)
		}
	}
	if len(h) != 7 {
		t.Errorf("hand set has %d codes, want 7", len(h))
	}
}

func TestKAPOneClusterConfinement(t *testing.T) {
	// The Perfect rules confined some codes' compiled runs to one
	// cluster to avoid intercluster overhead; verify the confinement is
	// wired through (the KAP variant may not beat a straight serial run
	// for these codes, just as the paper found "very limited
	// improvement").
	for _, p := range All() {
		switch p.Name {
		case "DYFESM", "OCEAN", "TRACK":
			if !p.KAPOneCluster {
				t.Errorf("%s should be confined to one cluster under KAP", p.Name)
			}
		}
	}
	out, err := Run(params.Default(), DYFESM(), Spec{Variant: KAP})
	if err != nil {
		t.Fatal(err)
	}
	if out.Seconds <= 0 {
		t.Error("confined KAP run produced no time")
	}
}

// TestRunBudget bounds what a whole proxy run allocates, machine and all,
// at the slice length cedarperf's suite workload uses (twice the paper's
// Reps). The two points are the ones whose cost used to be waiting, not
// work: TRACK auto without Cedar synchronization spends its run retrying
// the claim lock and building 96-instruction scalar-access bodies, QCD
// under KAP spends it polling barrier flags. With instructions queued by
// value, waits held as participant state and loops as a participant frame
// (DESIGN.md, "Instruction ownership") they cost ≈770 and ≈660 objects;
// with the machine and the runtime built from slabs and sized on first
// touch (DESIGN.md, "Demand-materialised state") ≈263 and ≈198; with one
// completion callback per runtime and no arrival record on an unobserved
// PFU ≈200 and ≈135 — the budgets are those × 1.1. Two callbacks per
// participant and a record per PFU put them back at ≈263 and ≈198, a
// closure chain per iteration at 7,000 and 1,100, a closure per poll or a
// heap Instr per body instruction at 328,000 and 169,000. Under -race the
// compiler keeps the temporary behind every slices.Grow, so a raced build
// gets 15% more.
func TestRunBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prof   Profile
		spec   Spec
		budget float64
	}{
		{"TRACK auto-nosync", TRACK(), Spec{Variant: Auto, NoSync: true}, 220},
		{"QCD kap", QCD(), Spec{Variant: KAP}, 149},
	} {
		tc.prof.Reps *= 2
		if raceEnabled {
			tc.budget *= 1.15
		}
		got := testing.AllocsPerRun(2, func() {
			if _, err := Run(params.Default(), tc.prof, tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s allocates %.0f objects per run, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("%s: %.0f objects per run", tc.name, got)
		}
	}
}

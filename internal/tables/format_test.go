package tables

import (
	"encoding/json"
	"strings"
	"testing"

	"cedar/internal/perfect"
)

// syntheticSuite builds a SuiteResult with hand-picked outcomes so the
// derived tables are fully deterministic — format and math coverage
// without simulation time.
func syntheticSuite() *SuiteResult {
	mk := func(sec, mflops float64) perfect.Outcome {
		return perfect.Outcome{Seconds: sec, MFLOPS: mflops}
	}
	profiles := []perfect.Profile{perfect.ARC2D(), perfect.QCD(), perfect.SPICE()}
	s := &SuiteResult{
		Profiles: profiles,
		Serial:   map[string]perfect.Outcome{"ARC2D": mk(1500, 2), "QCD": mk(250, 2), "SPICE": mk(130, 0.6)},
		KAP:      map[string]perfect.Outcome{"ARC2D": mk(750, 4), "QCD": mk(240, 2.1), "SPICE": mk(128, 0.6)},
		Auto:     map[string]perfect.Outcome{"ARC2D": mk(100, 30), "QCD": mk(139, 3.6), "SPICE": mk(110, 0.7)},
		NoSync:   map[string]perfect.Outcome{"ARC2D": mk(110, 27), "QCD": mk(145, 3.4), "SPICE": mk(112, 0.69)},
		NoPref:   map[string]perfect.Outcome{"ARC2D": mk(130, 23), "QCD": mk(146, 3.4), "SPICE": mk(113, 0.68)},
		Hand:     map[string]perfect.Outcome{"ARC2D": mk(65, 28), "QCD": mk(12, 40), "SPICE": mk(30, 1.5)},
	}
	return s
}

func TestSyntheticTable3Math(t *testing.T) {
	t3 := BuildTable3(syntheticSuite())
	by := map[string]Table3Row{}
	for _, r := range t3.Rows {
		by[r.Code] = r
	}
	if got := by["ARC2D"].AutoSpeedup; got != 15 {
		t.Errorf("ARC2D auto speedup %v, want 1500/100 = 15", got)
	}
	if got := by["QCD"].KAPSpeedup; got < 1.03 || got > 1.05 {
		t.Errorf("QCD KAP speedup %v, want ≈1.04", got)
	}
	if t3.CedarHarmonic <= 0 || t3.YMPHarmonic <= 0 {
		t.Error("harmonic means missing")
	}
	out := t3.Format()
	for _, want := range []string{"ARC2D", "QCD", "SPICE", "Serial(s)", "harmonic"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestSyntheticTable4Math(t *testing.T) {
	rows := BuildTable4(syntheticSuite())
	by := map[string]Table4Row{}
	for _, r := range rows {
		by[r.Code] = r
	}
	// Improvement is over the NoSync reference (automatable w/ prefetch,
	// w/o Cedar sync), per the paper's footnote.
	if got := by["QCD"].Improvement; got < 12.0 || got > 12.2 {
		t.Errorf("QCD improvement %v, want 145/12 ≈ 12.1", got)
	}
	if got := by["ARC2D"].HandSec; got != 65 {
		t.Errorf("ARC2D hand time %v", got)
	}
}

func TestSyntheticTable5Monotone(t *testing.T) {
	t5 := BuildTable5(syntheticSuite())
	in := t5.In["Cedar"]
	// Cedar ensemble {30, 3.6, 0.7}: In(3,0) = 42.86.
	if in[0] < 42 || in[0] > 43.5 {
		t.Errorf("Cedar In(3,0) = %v, want ≈42.9", in[0])
	}
	if t5.Exceptions["Cedar"] != 1 {
		t.Errorf("Cedar exceptions %d, want 1 ({30,3.6} → 8.3 > 6; {3.6,.7} = 5.1 ≤ 6)",
			t5.Exceptions["Cedar"])
	}
}

// TestSyntheticTable5JSON: on three codes In(3, 6) is undefined (+Inf,
// printed "-"); it encodes as null, since JSON has no infinity, and the
// defined entries keep their values.
func TestSyntheticTable5JSON(t *testing.T) {
	t5 := BuildTable5(syntheticSuite())
	b, err := json.Marshal(t5)
	if err != nil {
		t.Fatalf("json.Marshal(Table 5 over three codes): %v", err)
	}
	var got struct{ In map[string][3]*float64 }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	cedar := got.In["Cedar"]
	if cedar[0] == nil || *cedar[0] != t5.In["Cedar"][0] || cedar[2] != nil {
		t.Errorf("Cedar In encodes as %s, want In(3,0) = %v and In(3,6) null", b, t5.In["Cedar"][0])
	}
	for _, line := range strings.Split(t5.Format(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "Cedar" && f[3] != "-" {
			t.Errorf("Format prints the undefined In(3,6) as %q, want -", f[3])
		}
	}
}

func TestSyntheticTable6AndFigure3(t *testing.T) {
	s := syntheticSuite()
	t6 := BuildTable6(s)
	// ARC2D speedup 15 → eff .47 (intermediate); QCD 1.8 → .056 (unacc);
	// SPICE 1.18 → .037 (unacc).
	if t6.CedarHigh != 0 || t6.CedarInter != 1 || t6.CedarUnacc != 2 {
		t.Errorf("Cedar bands %d/%d/%d, want 0/1/2", t6.CedarHigh, t6.CedarInter, t6.CedarUnacc)
	}
	f := BuildFigure3(s)
	by := map[string]Figure3Point{}
	for _, p := range f.Points {
		by[p.Code] = p
	}
	// Hand versions: ARC2D 1500/65/32 = 0.72 (high), QCD 250/12/32 = 0.65
	// (high), SPICE 130/30/32 = 0.135 (intermediate).
	if by["ARC2D"].CedarEff < 0.71 || by["ARC2D"].CedarEff > 0.73 {
		t.Errorf("ARC2D hand eff %v", by["ARC2D"].CedarEff)
	}
	if f.CedarHigh != 2 || f.CedarInter != 1 || f.CedarUnacc != 0 {
		t.Errorf("figure bands %d/%d/%d, want 2/1/0", f.CedarHigh, f.CedarInter, f.CedarUnacc)
	}
	if !strings.Contains(f.Format(), "|") {
		t.Error("plot missing")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := formatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}, {"z", "wwww"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + rule + 2 rows", len(lines))
	}
	w := len(lines[0])
	for i, l := range lines {
		if i == 1 {
			continue // rule
		}
		if len(l) != w {
			t.Errorf("line %d width %d, want %d (aligned columns)", i, len(l), w)
		}
	}
}

func TestSuiteHelpers(t *testing.T) {
	s := syntheticSuite()
	if s.BestSeconds("ARC2D") != 65 {
		t.Error("BestSeconds should prefer the hand version")
	}
}

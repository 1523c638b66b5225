package tables

import (
	"slices"
	"strings"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
)

// measuredValues is a synthetic Result: the values a claim reads.
type measuredValues []float64

func (measuredValues) Format() string { return "" }

// TestClaimKinds: each kind of claim holds, breaks with a message that
// names the claim, the measured values and the paper's, and is skipped
// below its sizes — on synthetic results, without simulating. want is
// the broken claim's message, "" if it holds, "skip" if it is skipped.
func TestClaimKinds(t *testing.T) {
	values := of(func(m measuredValues) []float64 { return m })
	qcd := Sizes{RankN: 96, Codes: []perfect.Profile{perfect.QCD()}}
	gain := claim{id: "prefetch gain @3cl", kind: within, paper: 2.2, tol: 0.5}
	saturated := claim{id: "GM/pref MFLOPS @4cl", kind: within, paper: 104, tol: 3}.deviates(120, "saturates early")
	latency := claim{id: "VL latency floor", kind: floor, paper: 8}
	kap := claim{id: "KAP ≤ automatable", kind: ordering, tol: 0.05}
	band := claim{id: "MDG band", kind: inBand, paper: float64(ppt.High)}
	// A structural claim states its bounds: as values of an ordering, or
	// as the exact count the paper's table sums to.
	bounded := claim{id: "every Ep between 0 and 1.2", kind: ordering}
	counted := claim{id: "every code in one band on each machine", kind: within, paper: 13}
	at := func(c claim, needs Sizes) claim { c.needs = needs; return c }
	for _, tc := range []struct {
		c        claim
		measured measuredValues
		sizes    Sizes
		want     string
	}{
		{gain, measuredValues{2.5}, Sizes{}, ""},
		{gain, measuredValues{2.9}, Sizes{}, "prefetch gain @3cl: measured 2.9, paper 2.2 ± 0.5"},
		{saturated, measuredValues{121}, Sizes{}, ""},
		{saturated, measuredValues{104}, Sizes{}, "GM/pref MFLOPS @4cl: measured 104, paper 104, known deviation 120 ± 3 (saturates early)"},
		{latency, measuredValues{8, 9.5, 20}, Sizes{}, ""},
		{latency, measuredValues{8, 7.5}, Sizes{}, "VL latency floor: measured 8, 7.5, paper ≥ 8"},
		{kap, measuredValues{1, 1.04, 1}, Sizes{}, ""},
		{kap, measuredValues{1, 1.2, 1}, Sizes{}, "KAP ≤ automatable: measured 1, 1.2, 1, paper ascending within 5%"},
		{band, measuredValues{float64(ppt.High)}, Sizes{}, ""},
		{band, measuredValues{float64(ppt.Intermediate)}, Sizes{}, "MDG band: measured Intermediate, paper High"},
		{bounded, measuredValues{0, 0.1, 0.74, 1.2}, Sizes{}, ""},
		{bounded, measuredValues{0, 0.1, 1.3, 1.2}, Sizes{}, "every Ep between 0 and 1.2: measured 0, 0.1, 1.3, 1.2, paper ascending"},
		{bounded, measuredValues{0, 0, 0.74, 1.2}, Sizes{}, "every Ep between 0 and 1.2: measured 0, 0, 0.74, 1.2, paper ascending"},
		{counted, measuredValues{13, 13}, Sizes{}, ""},
		{counted, measuredValues{13, 12}, Sizes{}, "every code in one band on each machine: measured 13, 12, paper 13 ± 0"},
		// Below its sizes a claim of any kind is skipped, however broken its values.
		{at(gain, Sizes{RankN: 96}), measuredValues{2.9}, Sizes{RankN: 64}, "skip"},
		{at(saturated, Sizes{MemBWWords: 2048}), measuredValues{104}, qcd, "skip"},
		{at(latency, codes("TRACK")), measuredValues{7.5}, qcd, "skip"},
		{at(kap, allCodes), measuredValues{1, 1.2, 1}, qcd, "skip"},
		{at(band, Sizes{RankN: 96}), measuredValues{float64(ppt.Intermediate)}, Sizes{}, "skip"},
		{at(latency, Sizes{RankN: 96, Codes: qcd.Codes}), measuredValues{9}, qcd, ""},
		{at(latency, allCodes), measuredValues{9}, Sizes{}, ""},
	} {
		tc.c.value = values
		got, judged, held := tc.c.render(tc.measured, tc.sizes, "")
		if !judged {
			got = "skip"
		} else if held {
			got = ""
		}
		if got != tc.want {
			t.Errorf("%s over %v at %+v: %q, want %q", tc.c.id, tc.measured, tc.sizes, got, tc.want)
		}
	}
}

// TestReportLineSaysWhyUnjudged: a claim's line says why the run cannot
// judge it — the first size it lacks, or the machine — and has no values
// when a code it reads was not run.
func TestReportLineSaysWhyUnjudged(t *testing.T) {
	eff := claim{id: "GM/cache efficiency @4cl", kind: within, paper: 0.74, tol: 0.08, needs: Sizes{RankN: 96},
		value: of(func(m measuredValues) []float64 { return m })}
	trackOnly := eff
	trackOnly.needs = codes("TRACK")
	for _, tc := range []struct {
		c       claim
		s       Sizes
		machine string
		want    string
	}{
		{eff, Sizes{RankN: 96}, "", "GM/cache efficiency @4cl: measured 0.46, paper 0.74 ± 0.08"},
		{eff, Sizes{RankN: 32}, "", "GM/cache efficiency @4cl: measured 0.46, paper 0.74 ± 0.08 (not judged: n = 32 < 96)"},
		{eff, Sizes{RankN: 96}, "faulted machine", "GM/cache efficiency @4cl: measured 0.46, paper 0.74 ± 0.08 (not judged: faulted machine)"},
		{trackOnly, Sizes{Codes: []perfect.Profile{perfect.QCD()}}, "", "GM/cache efficiency @4cl: measured nothing, paper 0.74 ± 0.08 (not judged: no TRACK run)"},
	} {
		if got, _, _ := tc.c.render(measuredValues{0.46}, tc.s, tc.machine); got != tc.want {
			t.Errorf("at %+v on %q: %q, want %q", tc.s, tc.machine, got, tc.want)
		}
	}
}

// TestBrokenClaimFailsTheReportNotItsBytes: a claim planted on an entry
// adds exactly its own line to the report, after the entry's claims, and
// the line reads the same whether the claim holds or breaks. A broken one
// makes RunAll and WriteReport return an error naming that line, also
// when -clusters 4 names the default machine; under a fault plan or on a
// scaled machine nothing is judged.
func TestBrokenClaimFailsTheReportNotItsBytes(t *testing.T) {
	i := slices.IndexFunc(catalogue, func(e Experiment) bool { return e.Name == "overheads" })
	saved := catalogue[i].claims
	t.Cleanup(func() { catalogue[i].claims = saved })
	report := func(env Env, planted ...claim) (string, error) {
		catalogue[i].claims = append(slices.Clip(saved), planted...)
		exps, err := Experiments("overheads")
		if err != nil {
			return "", err
		}
		var b strings.Builder
		err = WriteReport(&b, env, Sizes{}, exps)
		return b.String(), err
	}
	clean, err := report(Env{})
	if err != nil {
		t.Fatal(err)
	}
	startup := one(func(o *OverheadsResult) float64 { return o.XDoallStartupUS })
	for _, tc := range []struct {
		planted claim
		line    string
		broken  bool
	}{
		{claim{id: "planted", kind: floor, paper: 1, value: startup}, "planted: measured 90.44, paper ≥ 1", false},
		{claim{id: "planted", kind: floor, paper: 1000, value: startup}, "planted: measured 90.44, paper ≥ 1000", true},
	} {
		got, err := report(Env{}, tc.planted)
		if want := clean + tc.line + "\n"; got != want {
			t.Errorf("the report with %q planted:\n%s\nwant the bytes without it plus its line:\n%s", tc.line, got, want)
		}
		switch {
		case tc.broken && (err == nil || !strings.Contains(err.Error(), "overheads: "+tc.line)):
			t.Errorf("WriteReport with %q planted: err = %v, want it to name the line", tc.line, err)
		case !tc.broken && err != nil:
			t.Errorf("WriteReport with %q planted: %v", tc.line, err)
		}
	}
	broken := claim{id: "planted", kind: floor, paper: 1000, value: startup}
	want := "overheads: planted: measured 90.44, paper ≥ 1000"
	catalogue[i].claims = append(slices.Clip(saved), broken)
	exps, _ := Experiments("overheads")
	if err := RunAll(Env{}, Sizes{}, exps, func(Experiment, Result) error { return nil }); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunAll with a broken claim: err = %v, want it to name %q", err, want)
	}
	// Four clusters is the as-built machine, named or not, so it is judged.
	if _, err := report(Env{Clusters: 4}, broken); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Env{Clusters: 4} with a broken claim: err = %v, want it to name %q", err, want)
	}
	for _, tc := range []struct {
		env Env
		why string
	}{{Env{Faults: fault.DemoPlan()}, "faulted machine"}, {Env{Clusters: 8}, "rescaled machine"}} {
		got, err := report(tc.env, broken)
		if err != nil {
			t.Errorf("Env %+v: claims describe the healthy as-built machine, yet: %v", tc.env, err)
		}
		if !strings.Contains(got, "planted: measured ") || !strings.Contains(got, "paper ≥ 1000 (not judged: "+tc.why+")") {
			t.Errorf("Env %+v: the planted claim's line does not say %q:\n%s", tc.env, tc.why, got)
		}
	}
}

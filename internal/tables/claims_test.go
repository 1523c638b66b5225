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
		got, checked := tc.c.check(tc.sizes, tc.measured)
		if !checked {
			got = "skip"
		}
		if got != tc.want {
			t.Errorf("%s over %v at %+v: %q, want %q", tc.c.id, tc.measured, tc.sizes, got, tc.want)
		}
	}
}

// TestBrokenClaimFailsTheReportNotItsBytes: a broken claim planted on an
// entry makes WriteReport name it in its error after writing exactly the
// report it writes without it, also when -clusters 4 names the default
// machine; under a fault plan or on a scaled machine nothing is checked.
func TestBrokenClaimFailsTheReportNotItsBytes(t *testing.T) {
	report := func(env Env) (string, error) {
		var b strings.Builder
		exps, err := Experiments("overheads")
		if err != nil {
			return "", err
		}
		err = WriteReport(&b, env, Sizes{}, exps)
		return b.String(), err
	}
	clean, err := report(Env{})
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(catalogue, func(e Experiment) bool { return e.Name == "overheads" })
	saved := catalogue[i].claims
	t.Cleanup(func() { catalogue[i].claims = saved })
	catalogue[i].claims = append(slices.Clip(saved), claim{id: "planted", kind: floor, paper: 1000,
		value: one(func(o *OverheadsResult) float64 { return o.XDoallStartupUS })})

	got, err := report(Env{})
	want := "overheads: planted: measured 90.44, paper ≥ 1000"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("WriteReport with a broken claim: err = %v, want it to name %q", err, want)
	}
	if got != clean {
		t.Errorf("the report with a broken claim:\n%s\nwant the bytes without it:\n%s", got, clean)
	}
	// Four clusters is the as-built machine, named or not, so it is judged.
	if _, err := report(Env{Clusters: 4}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Env{Clusters: 4} with a broken claim: err = %v, want it to name %q", err, want)
	}
	for _, env := range []Env{{Faults: fault.DemoPlan()}, {Clusters: 8}} {
		if _, err := report(env); err != nil {
			t.Errorf("Env %+v: claims describe the healthy as-built machine, yet: %v", env, err)
		}
	}
}

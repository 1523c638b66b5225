package tables

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"cedar/internal/comparator"
	"cedar/internal/ppt"
)

// Table5Result reproduces "Instability for Perfect codes": In(13, e) for
// e = 0, 2, 6 on Cedar (automatable), the Cray-1 (modern compiler) and
// the Cray YMP/8 (baseline), plus the smallest exception count that
// reaches workstation-level stability (In ≤ 6). The paper: Cedar and the
// Cray-1 pass with two exceptions; the YMP needs six.
type Table5Result struct {
	Systems    []string
	In         map[string][3]float64 // e = 0, 2, 6
	Exceptions map[string]int
}

// BuildTable5 derives the instability table from the suite.
func BuildTable5(s *SuiteResult) *Table5Result {
	ymp := comparator.NewYMP8()
	cray1 := comparator.NewCray1()
	var cedar, crayRates, ympRates []float64
	for _, p := range s.Profiles {
		cedar = append(cedar, s.Auto[p.Name].MFLOPS)
		sum := p.Summary()
		crayRates = append(crayRates, cray1.MFLOPS(sum))
		ympRates = append(ympRates, ymp.AutoMFLOPS(sum))
	}
	res := &Table5Result{
		Systems:    []string{"Cedar", "Cray 1", "YMP/8"},
		In:         map[string][3]float64{},
		Exceptions: map[string]int{},
	}
	for name, rates := range map[string][]float64{
		"Cedar": cedar, "Cray 1": crayRates, "YMP/8": ympRates,
	} {
		res.In[name] = [3]float64{
			ppt.Instability(rates, 0),
			ppt.Instability(rates, 2),
			ppt.Instability(rates, 6),
		}
		res.Exceptions[name] = ppt.ExceptionsForStability(rates)
	}
	return res
}

// MarshalJSON encodes an undefined In(K, e) — e ≥ K, held as +Inf — as
// null, since JSON has no infinity.
func (t Table5Result) MarshalJSON() ([]byte, error) {
	in := map[string][3]*float64{}
	for sys, row := range t.In {
		var out [3]*float64
		for i, v := range row {
			if !math.IsInf(v, 1) {
				out[i] = &v
			}
		}
		in[sys] = out
	}
	return json.Marshal(struct {
		Systems    []string
		In         map[string][3]*float64
		Exceptions map[string]int
	}{t.Systems, in, t.Exceptions})
}

// Format renders Table 5.
func (t *Table5Result) Format() string {
	header := []string{"System", "In(13,0)", "In(13,2)", "In(13,6)", "e for stability"}
	var rows [][]string
	for _, sys := range t.Systems {
		in := t.In[sys]
		f := func(v float64) string {
			if math.IsInf(v, 1) {
				return "-"
			}
			return fmt.Sprintf("%.1f", v)
		}
		rows = append(rows, []string{
			sys, f(in[0]), f(in[1]), f(in[2]), fmt.Sprintf("%d", t.Exceptions[sys]),
		})
	}
	s := formatTable(header, rows)
	s += "paper: Cedar 63.4/5.8/-, Cray 1 -/10.9/4.6, YMP/8 75.3/29.0/5.3; Cedar and Cray-1 stable with 2 exceptions, YMP needs 6\n"
	return s
}

// Table6Result reproduces "Restructuring Efficiency": how many codes land
// in each efficiency band for Cedar (32 CEs, automatable) and the Cray
// YMP (8 CPUs, automatic restructuring). The paper: Cedar 1 High /
// 9 Intermediate / 3 Unacceptable; YMP 0 / 6 / 7.
type Table6Result struct {
	CedarHigh, CedarInter, CedarUnacc int
	YMPHigh, YMPInter, YMPUnacc       int
	CedarEff, YMPEff                  map[string]float64
}

// BuildTable6 derives the band counts from the suite.
func BuildTable6(s *SuiteResult) *Table6Result {
	ymp := comparator.NewYMP8()
	res := &Table6Result{CedarEff: map[string]float64{}, YMPEff: map[string]float64{}}
	var cedarEffs, ympEffs []float64
	for _, p := range s.Profiles {
		speedup := s.Serial[p.Name].Seconds / s.Auto[p.Name].Seconds
		ce := ppt.Efficiency(speedup, 32)
		res.CedarEff[p.Name] = ce
		cedarEffs = append(cedarEffs, ce)
		ye := ymp.RestructuringEfficiency(p.Summary())
		res.YMPEff[p.Name] = ye
		ympEffs = append(ympEffs, ye)
	}
	res.CedarHigh, res.CedarInter, res.CedarUnacc = ppt.BandCounts(cedarEffs, 32)
	res.YMPHigh, res.YMPInter, res.YMPUnacc = ppt.BandCounts(ympEffs, 8)
	return res
}

// Format renders Table 6.
func (t *Table6Result) Format() string {
	header := []string{"Performance Level", "Cedar", "Cray YMP"}
	rows := [][]string{
		{"High (Ep >= 1/2)", fmt.Sprintf("%d Codes", t.CedarHigh), fmt.Sprintf("%d Codes", t.YMPHigh)},
		{"Intermediate (Ep >= 1/2logP)", fmt.Sprintf("%d Codes", t.CedarInter), fmt.Sprintf("%d Codes", t.YMPInter)},
		{"Unacceptable (Ep < 1/2logP)", fmt.Sprintf("%d Codes", t.CedarUnacc), fmt.Sprintf("%d Codes", t.YMPUnacc)},
	}
	s := formatTable(header, rows)
	s += "paper: Cedar 1/9/3, Cray YMP 0/6/7\n"
	return s
}

// table5Claims: instability falls as exceptions are allowed; with none,
// Cedar's is the paper's and the YMP's is compressed (known deviation 3);
// Cedar and the Cray-1 reach stability with fewer exceptions than the YMP.
func table5Claims() []claim {
	var cs []claim
	for _, sys := range []string{"Cedar", "Cray 1", "YMP/8"} {
		cs = append(cs, claim{id: sys + " In(13,e) falls with e", kind: ordering,
			value: of(func(t *Table5Result) []float64 {
				in := t.In[sys] // e = 6, 2, 0, less the undefined
				return slices.DeleteFunc([]float64{in[2], in[1], in[0]}, func(v float64) bool { return math.IsInf(v, 1) })
			})})
	}
	return append(cs,
		claim{id: "Cedar In(13,0)", kind: within, paper: 63.4, tol: 6, needs: allCodes,
			value: one(func(t *Table5Result) float64 { return t.In["Cedar"][0] })},
		claim{id: "YMP/8 In(13,0)", kind: within, paper: 75.3, tol: 1, needs: allCodes,
			value: one(func(t *Table5Result) float64 { return t.In["YMP/8"][0] })}.deviates(26.5, "a two-parameter Amdahl model cannot spread 13 codes as widely: known deviation 3"),
		claim{id: "Cedar and Cray 1 stable with fewer exceptions than YMP/8", kind: ordering, needs: allCodes,
			value: of(func(t *Table5Result) []float64 {
				return []float64{float64(max(t.Exceptions["Cedar"], t.Exceptions["Cray 1"])), float64(t.Exceptions["YMP/8"])}
			})},
	)
}

// table6Claims: the band counts of both machines, Cedar's two off by one
// code (known deviation 4), and every code counted once.
var table6Claims = []claim{
	suiteCount("Cedar high", 1, 0, func(t *Table6Result) int { return t.CedarHigh }),
	suiteCount("Cedar intermediate", 9, 0, func(t *Table6Result) int { return t.CedarInter }).deviates(10, trackAtThreshold),
	suiteCount("Cedar unacceptable", 3, 0, func(t *Table6Result) int { return t.CedarUnacc }).deviates(2, trackAtThreshold),
	suiteCount("YMP/8 high", 0, 0, func(t *Table6Result) int { return t.YMPHigh }),
	suiteCount("YMP/8 intermediate", 6, 0, func(t *Table6Result) int { return t.YMPInter }),
	suiteCount("YMP/8 unacceptable", 7, 0, func(t *Table6Result) int { return t.YMPUnacc }),
	{id: "every code in one band on each machine", kind: within,
		value: of(func(t *Table6Result) []float64 {
			return []float64{float64(t.CedarHigh + t.CedarInter + t.CedarUnacc - len(t.CedarEff)), float64(t.YMPHigh + t.YMPInter + t.YMPUnacc - len(t.YMPEff))}
		})},
}

const trackAtThreshold = "TRACK sits at Ep 0.104, a hair above 0.1: known deviation 4"

// suiteCount is a band count over the whole suite.
func suiteCount[R Result](id string, paper, tol float64, count func(R) int) claim {
	return claim{id: id + " codes", kind: within, paper: paper, tol: tol, needs: allCodes,
		value: one(func(r R) float64 { return float64(count(r)) })}
}

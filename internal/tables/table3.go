package tables

import (
	"fmt"
	"slices"

	"cedar/internal/comparator"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
)

// Table3Row is one Perfect code's line: execution times as speed
// improvements over the uniprocessor scalar version, the ablations, the
// automatable MFLOPS, and the Cray YMP/8 ratio.
type Table3Row struct {
	Code          string
	SerialSec     float64
	KAPSpeedup    float64
	AutoSpeedup   float64
	NoSyncSpeedup float64
	NoPrefSpeedup float64
	MFLOPS        float64
	YMPMFLOPS     float64
	YMPRatio      float64
}

// Table3Result is the full Perfect table plus the harmonic-mean summary
// (the paper: Cedar 3.2 MFLOPS, YMP/8 23.7, ratio 7.4).
type Table3Result struct {
	Rows          []Table3Row
	CedarHarmonic float64
	YMPHarmonic   float64
	RatioHarmonic float64
}

// BuildTable3 derives the table from a completed suite run.
func BuildTable3(s *SuiteResult) *Table3Result {
	ymp := comparator.NewYMP8()
	res := &Table3Result{}
	var cedarRates, ympRates []float64
	for _, p := range s.Profiles {
		serial := s.Serial[p.Name].Seconds
		row := Table3Row{
			Code:          p.Name,
			SerialSec:     serial,
			KAPSpeedup:    serial / s.KAP[p.Name].Seconds,
			AutoSpeedup:   serial / s.Auto[p.Name].Seconds,
			NoSyncSpeedup: serial / s.NoSync[p.Name].Seconds,
			NoPrefSpeedup: serial / s.NoPref[p.Name].Seconds,
			MFLOPS:        s.Auto[p.Name].MFLOPS,
		}
		row.YMPMFLOPS = ymp.AutoMFLOPS(p.Summary())
		row.YMPRatio = row.YMPMFLOPS / row.MFLOPS
		cedarRates = append(cedarRates, row.MFLOPS)
		ympRates = append(ympRates, row.YMPMFLOPS)
		res.Rows = append(res.Rows, row)
	}
	res.CedarHarmonic = ppt.HarmonicMean(cedarRates)
	res.YMPHarmonic = ppt.HarmonicMean(ympRates)
	if res.CedarHarmonic > 0 {
		res.RatioHarmonic = res.YMPHarmonic / res.CedarHarmonic
	}
	return res
}

// Format renders the table in the paper's layout.
func (t *Table3Result) Format() string {
	header := []string{"Code", "Serial(s)", "KAP", "Automatable", "NoSync", "NoPref", "MFLOPS", "YMP/Cedar"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Code,
			fmt.Sprintf("%.0f", r.SerialSec),
			fmt.Sprintf("%.1f", r.KAPSpeedup),
			fmt.Sprintf("%.1f", r.AutoSpeedup),
			fmt.Sprintf("%.1f", r.NoSyncSpeedup),
			fmt.Sprintf("%.1f", r.NoPrefSpeedup),
			fmt.Sprintf("%.2f", r.MFLOPS),
			fmt.Sprintf("%.1f", r.YMPRatio),
		})
	}
	return formatTable(header, rows) + fmt.Sprintf("harmonic-mean MFLOPS: Cedar %.1f, YMP/8 %.1f, ratio %.1f\n",
		t.CedarHarmonic, t.YMPHarmonic, t.RatioHarmonic)
}

// Table4Row is one hand-optimized code: time and improvement over the
// automatable-with-prefetch-without-Cedar-sync version, the paper's
// reference point ("We use prefetch but not Cedar synchronization").
type Table4Row struct {
	Code        string
	HandSec     float64
	Improvement float64
}

// Table4 is the hand-optimized table, one row per altered code. The
// paper: ARC2D 68 s (2.1×), BDNA 70 (1.7×), FLO52 33, DYFESM 31, TRFD 7.5
// (2.8×), QCD 21 (11.4×), SPICE 26.
type Table4 []Table4Row

// BuildTable4 derives Table 4. The reference variant (auto + prefetch,
// no Cedar sync) equals the suite's NoSync run.
func BuildTable4(s *SuiteResult) Table4 {
	var rows Table4
	for _, p := range s.Profiles {
		hand, ok := s.Hand[p.Name]
		if !ok {
			continue
		}
		ref := s.NoSync[p.Name].Seconds
		rows = append(rows, Table4Row{
			Code:        p.Name,
			HandSec:     hand.Seconds,
			Improvement: ref / hand.Seconds,
		})
	}
	return rows
}

// Format renders Table 4.
func (rows Table4) Format() string {
	header := []string{"Code", "Time(s)", "Improvement"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Code, fmt.Sprintf("%.1f", r.HandSec), fmt.Sprintf("%.1f", r.Improvement),
		})
	}
	return formatTable(header, out)
}

// row is the named code's row.
func (t *Table3Result) row(code string) Table3Row {
	i := slices.IndexFunc(t.Rows, func(r Table3Row) bool { return r.Code == code })
	return t.Rows[i]
}

// rowClaim is a claim about one code's row, which it needs in Codes.
func rowClaim(code, id string, kind claimKind, paper, tol float64, f func(Table3Row) []float64) claim {
	return claim{id: code + " " + id, kind: kind, paper: paper, tol: tol, needs: codes(code),
		value: of(func(t *Table3Result) []float64 { return f(t.row(code)) })}
}

// table3Claims: every code improves serial → KAP → automatable and loses
// without Cedar sync, then prefetch; the per-code stories of the paper or
// a companion CSRD report; the harmonic means (rates: known deviation 1).
func table3Claims() []claim {
	var cs []claim
	for _, p := range perfect.All() {
		cs = append(cs,
			rowClaim(p.Name, "serial ≤ KAP ≤ automatable", ordering, 0, 0.05,
				func(r Table3Row) []float64 { return []float64{1, r.KAPSpeedup, r.AutoSpeedup} }),
			rowClaim(p.Name, "0 < NoPref ≤ NoSync ≤ automatable", ordering, 0, 0.06,
				func(r Table3Row) []float64 { return []float64{0, r.NoPrefSpeedup, r.NoSyncSpeedup, r.AutoSpeedup} }))
	}
	speedup := func(r Table3Row) []float64 { return []float64{r.AutoSpeedup} }
	band := func(r Table3Row) []float64 { return []float64{float64(ppt.BandOfSpeedup(r.AutoSpeedup, 32))} }
	noSync := func(r Table3Row) []float64 { return []float64{r.AutoSpeedup / r.NoSyncSpeedup} }
	noPref := func(r Table3Row) []float64 { return []float64{r.NoSyncSpeedup / r.NoPrefSpeedup} }
	return append(cs,
		rowClaim("ADM", "automatable band", inBand, float64(ppt.Intermediate), 0, band),
		rowClaim("ARC2D", "automatable speedup", floor, 10, 0, speedup),
		rowClaim("DYFESM", "NoSync slowdown", floor, 1.05, 0, noSync),
		rowClaim("DYFESM", "NoPref slowdown", floor, 1.2, 0, noPref),
		rowClaim("MDG", "automatable band", inBand, float64(ppt.High), 0, band),
		rowClaim("MG3D", "automatable band", inBand, float64(ppt.Intermediate), 0, band),
		rowClaim("OCEAN", "NoSync slowdown", floor, 1.5, 0, noSync),
		rowClaim("QCD", "automatable speedup", within, 1.8, 0.5, speedup),
		rowClaim("SPEC77", "automatable band", inBand, float64(ppt.Intermediate), 0, band),
		rowClaim("TRACK", "NoPref slowdown", within, 1, 0.1, noPref),
		rowClaim("SPICE", "0 < automatable MFLOPS < 1.5", ordering, 0, 0, func(r Table3Row) []float64 { return []float64{0, r.MFLOPS, 1.5} }),
		claim{id: "ARC2D outruns SPICE", kind: ordering, needs: codes("ARC2D", "SPICE"),
			value: of(func(t *Table3Result) []float64 {
				return []float64{t.row("SPICE").AutoSpeedup, t.row("ARC2D").AutoSpeedup}
			})},
		claim{id: "every code's automatable MFLOPS over SPICE's", kind: floor, paper: 1, needs: allCodes,
			value: of(func(t *Table3Result) []float64 {
				return collect(t.Rows, func(r Table3Row) float64 { return r.MFLOPS / t.row("SPICE").MFLOPS })
			})},
		claim{id: "Cedar harmonic-mean MFLOPS", kind: within, paper: 3.2, tol: 0.3, needs: allCodes,
			value: one(func(t *Table3Result) float64 { return t.CedarHarmonic })}.deviates(4.8, "proxy flop counts are chosen, not measured: known deviation 1"),
		claim{id: "YMP/8 over Cedar, harmonic means", kind: within, paper: 7.4, tol: 2, needs: allCodes,
			value: one(func(t *Table3Result) float64 { return t.RatioHarmonic })},
	)
}

// table4Claims: every hand version beats the automatable reference, by
// the paper's factor where Table 4 gives one.
func table4Claims() []claim {
	hand := func(code string, kind claimKind, paper, tol float64) claim {
		return claim{id: code + " hand improvement", kind: kind, paper: paper, tol: tol, needs: codes(code),
			value: of(func(rows Table4) []float64 {
				return []float64{rows[slices.IndexFunc(rows, func(r Table4Row) bool { return r.Code == code })].Improvement}
			})}
	}
	return []claim{
		hand("ARC2D", within, 2.1, 0.5), hand("BDNA", within, 1.7, 0.5), hand("FLO52", floor, 1, 0), hand("DYFESM", floor, 1, 0),
		hand("TRFD", within, 2.8, 1), hand("QCD", within, 11.4, 3), hand("SPICE", floor, 1, 0),
	}
}

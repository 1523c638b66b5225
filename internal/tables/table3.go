package tables

import (
	"fmt"

	"cedar/internal/comparator"
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

// Table3Result is the full Perfect table plus the harmonic-mean summary.
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
	s := formatTable(header, rows)
	s += fmt.Sprintf("harmonic-mean MFLOPS: Cedar %.1f, YMP/8 %.1f, ratio %.1f (paper: 3.2, 23.7, 7.4)\n",
		t.CedarHarmonic, t.YMPHarmonic, t.RatioHarmonic)
	return s
}

// Table4Row is one hand-optimized code: time and improvement over the
// automatable-with-prefetch-without-Cedar-sync version, the paper's
// reference point ("We use prefetch but not Cedar synchronization").
type Table4Row struct {
	Code        string
	HandSec     float64
	Improvement float64
}

// Table4 is the hand-optimized table, one row per altered code.
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
	s := formatTable(header, out)
	s += "paper: ARC2D 68 s (2.1), BDNA 70 (1.7), FLO52 33, DYFESM 31, TRFD 7.5 (2.8), QCD 21 (11.4), SPICE 26\n"
	return s
}

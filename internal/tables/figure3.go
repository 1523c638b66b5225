package tables

import (
	"fmt"
	"slices"
	"strings"

	"cedar/internal/comparator"
	"cedar/internal/ppt"
)

// Figure3Point is one code in the Cray YMP/8 vs Cedar efficiency scatter
// for the manually optimized Perfect codes.
type Figure3Point struct {
	Code      string
	CedarEff  float64
	YMPEff    float64
	CedarBand ppt.Band
	YMPBand   ppt.Band
	Hand      bool // Cedar point uses a Table 4 hand version
}

// Figure3Result is the scatter plus the band tallies the paper reads off
// it: the 8-processor YMP about half high and half intermediate with one
// unacceptable; the 32-processor Cedar about one-quarter high and
// three-quarters intermediate with none unacceptable.
type Figure3Result struct {
	Points                            []Figure3Point
	CedarHigh, CedarInter, CedarUnacc int
	YMPHigh, YMPInter, YMPUnacc       int
}

// BuildFigure3 derives the scatter from the suite, using hand versions
// where they exist (the paper's "manually optimized" set).
func BuildFigure3(s *SuiteResult) *Figure3Result {
	ymp := comparator.NewYMP8()
	res := &Figure3Result{}
	for _, p := range s.Profiles {
		speedup := s.Serial[p.Name].Seconds / s.BestSeconds(p.Name)
		_, hand := s.Hand[p.Name]
		pt := Figure3Point{
			Code:     p.Name,
			CedarEff: ppt.Efficiency(speedup, 32),
			YMPEff:   ymp.HandEfficiency(p.Summary()),
			Hand:     hand,
		}
		pt.CedarBand = ppt.BandOfEfficiency(pt.CedarEff, 32)
		pt.YMPBand = ppt.BandOfEfficiency(pt.YMPEff, 8)
		res.Points = append(res.Points, pt)
		switch pt.CedarBand {
		case ppt.High:
			res.CedarHigh++
		case ppt.Intermediate:
			res.CedarInter++
		default:
			res.CedarUnacc++
		}
		switch pt.YMPBand {
		case ppt.High:
			res.YMPHigh++
		case ppt.Intermediate:
			res.YMPInter++
		default:
			res.YMPUnacc++
		}
	}
	return res
}

// Format renders the scatter as a table plus an ASCII plot in the spirit
// of the paper's Figure 3 (YMP efficiency vs Cedar efficiency, banded).
func (f *Figure3Result) Format() string {
	header := []string{"Code", "Cedar Ep", "band", "YMP Ep", "band", "version"}
	var rows [][]string
	for _, p := range f.Points {
		v := "auto"
		if p.Hand {
			v = "hand"
		}
		rows = append(rows, []string{
			p.Code,
			fmt.Sprintf("%.3f", p.CedarEff), p.CedarBand.String()[:1],
			fmt.Sprintf("%.3f", p.YMPEff), p.YMPBand.String()[:1],
			v,
		})
	}
	return formatTable(header, rows) + "\n" + f.plot()
}

// plot draws a crude scatter: x = Cedar efficiency, y = YMP efficiency.
func (f *Figure3Result) plot() string {
	const w, h = 51, 21
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	put := func(x, y float64, c byte) {
		col := int(x * float64(w-1))
		row := h - 1 - int(y*float64(h-1))
		if col < 0 {
			col = 0
		}
		if col >= w {
			col = w - 1
		}
		if row < 0 {
			row = 0
		}
		if row >= h {
			row = h - 1
		}
		grid[row][col] = c
	}
	for _, p := range f.Points {
		c := byte('o')
		if p.Hand {
			c = '*'
		}
		put(p.CedarEff, p.YMPEff, c)
	}
	var b strings.Builder
	b.WriteString("YMP eff.\n")
	for i, row := range grid {
		y := 1 - float64(i)/float64(h-1)
		if i%5 == 0 {
			fmt.Fprintf(&b, "%4.1f |%s|\n", y, string(row))
		} else {
			fmt.Fprintf(&b, "     |%s|\n", string(row))
		}
	}
	b.WriteString("      " + strings.Repeat("-", w) + "\n")
	b.WriteString("      0.0                 Cedar eff.                1.0\n")
	b.WriteString("      (* = hand-optimized, o = automatable)\n")
	return b.String()
}

// figure3Claims: the band tallies as counts of 13 codes (Cedar ¼ high and
// none unacceptable, the YMP ½ high and one unacceptable), QCD's hand
// speedup, and every efficiency between 0 and 1.2.
var figure3Claims = []claim{
	suiteCount("Cedar high", 13.0/4, 1, func(f *Figure3Result) int { return f.CedarHigh }),
	suiteCount("Cedar intermediate", 13*3.0/4, 1, func(f *Figure3Result) int { return f.CedarInter }),
	suiteCount("Cedar unacceptable", 0, 0, func(f *Figure3Result) int { return f.CedarUnacc }),
	suiteCount("YMP/8 high", 6.5, 1, func(f *Figure3Result) int { return f.YMPHigh }),
	suiteCount("YMP/8 intermediate", 6.5, 1, func(f *Figure3Result) int { return f.YMPInter }),
	suiteCount("YMP/8 unacceptable", 1, 0, func(f *Figure3Result) int { return f.YMPUnacc }),
	{id: "QCD hand speedup", kind: within, paper: 20.8, tol: 5, needs: codes("QCD"),
		value: one(func(f *Figure3Result) float64 {
			return 32 * f.Points[slices.IndexFunc(f.Points, func(p Figure3Point) bool { return p.Code == "QCD" })].CedarEff
		})},
	{id: "every Ep between 0 and 1.2", kind: ordering,
		value: of(func(f *Figure3Result) []float64 {
			eps := append(collect(f.Points, func(p Figure3Point) float64 { return p.CedarEff }),
				collect(f.Points, func(p Figure3Point) float64 { return p.YMPEff })...)
			return []float64{0, slices.Min(eps), slices.Max(eps), 1.2}
		})},
}

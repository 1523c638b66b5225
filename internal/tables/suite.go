// Package tables regenerates every table and figure of the paper's
// evaluation: the rank-64 update memory study (Table 1), the global
// memory latency/interarrival study (Table 2), the Perfect Benchmarks
// results (Tables 3 and 4), the stability and restructuring-efficiency
// analyses (Tables 5 and 6), the Cedar-vs-YMP efficiency scatter
// (Figure 3), the PPT4 scalability study (CG on Cedar vs banded matvec on
// the CM-5), plus the §3.2 runtime overhead measurements and the design
// ablations DESIGN.md calls out (network type/queue depth, prefetch block
// size, scaled-up Cedar).
package tables

import (
	"fmt"
	"strings"

	"cedar/internal/bench"
	"cedar/internal/perfect"
)

// SuiteResult holds every Perfect outcome the later tables need.
type SuiteResult struct {
	Profiles []perfect.Profile
	// Per code name:
	Serial map[string]perfect.Outcome
	KAP    map[string]perfect.Outcome
	Auto   map[string]perfect.Outcome
	NoSync map[string]perfect.Outcome // automatable without Cedar sync
	NoPref map[string]perfect.Outcome // ... and without prefetch
	Hand   map[string]perfect.Outcome // Table 4 versions where they exist
}

// RunSuite executes every version of the given Perfect codes (nil = full
// suite) on the Env's base machine: the points t3, t4, t5, t6 and fig3
// share, and the SuiteResult their tables are built from.
func RunSuite(env Env, codes []perfect.Profile) (*SuiteResult, error) {
	s := Sizes{Codes: codes}
	outs, err := sweep(env, suitePoints(env, s), false)
	if err != nil {
		return nil, err
	}
	return suiteResult(s, outs), nil
}

// suiteVersions are the versions every code runs, in point order
// (perfect.Versions names them); the hand version only where Table 4 has
// one.
var suiteVersions = []string{"serial", "kap", "auto", "auto-nosync", "auto-nosync-nopref", "hand"}

// suiteRun is one point of the suite: a code and its version.
type suiteRun struct {
	code perfect.Profile
	v    int // index into suiteVersions
}

// suiteRuns lists the suite's points, code by code.
func suiteRuns(s Sizes) []suiteRun {
	codes := s.Codes
	if codes == nil {
		codes = perfect.All()
	}
	hand := perfect.HandOptimized()
	var runs []suiteRun
	for _, p := range codes {
		for v, version := range suiteVersions {
			if version != "hand" || hand[p.Name] {
				runs = append(runs, suiteRun{p, v})
			}
		}
	}
	return runs
}

// suitePoints is the (code × version) sweep, one independent whole
// simulation per point under "perfect/<code>/<version>".
func suitePoints(env Env, s Sizes) []point {
	versions := perfect.Versions()
	var pts []point
	for _, r := range suiteRuns(s) {
		version := suiteVersions[r.v]
		pts = append(pts, env.point(fmt.Sprintf("perfect/%s/%s", r.code.Name, label(versions[version])), bench.MachineSpec{},
			bench.WorkloadSpec{Kind: "perfect", Code: r.code.Name, Variant: version}))
	}
	return pts
}

// suiteResult assembles the suite's outcomes, in suitePoints order.
func suiteResult(s Sizes, outs []bench.PointOutcome) *SuiteResult {
	res, versions := &SuiteResult{}, perfect.Versions()
	dst := []*map[string]perfect.Outcome{&res.Serial, &res.KAP, &res.Auto, &res.NoSync, &res.NoPref, &res.Hand} // suiteVersions order
	for _, m := range dst {
		*m = map[string]perfect.Outcome{}
	}
	for i, r := range suiteRuns(s) {
		if r.v == 0 {
			res.Profiles = append(res.Profiles, r.code)
		}
		(*dst[r.v])[r.code.Name] = perfect.Outcome{
			Code: r.code.Name, Variant: versions[suiteVersions[r.v]].Variant,
			Seconds: outs[i].Seconds, MFLOPS: outs[i].MFLOPS, SimCycles: outs[i].Cycles,
		}
	}
	return res
}

// suiteTable is the table function of a catalogue entry built from the
// suite.
func suiteTable[R Result](build func(*SuiteResult) R) func(Sizes, []point, []bench.PointOutcome) Result {
	return func(s Sizes, _ []point, outs []bench.PointOutcome) Result { return build(suiteResult(s, outs)) }
}

func label(spec perfect.Spec) string {
	s := spec.Variant.String()
	if spec.NoSync {
		s += "-nosync"
	}
	if spec.NoPref {
		s += "-nopref"
	}
	return s
}

// BestSeconds returns the hand time where one exists, else automatable.
func (s *SuiteResult) BestSeconds(code string) float64 {
	if o, ok := s.Hand[code]; ok {
		return o.Seconds
	}
	return s.Auto[code].Seconds
}

// formatTable formats a fixed-width table from rows of cells.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

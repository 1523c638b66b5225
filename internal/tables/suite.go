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
	"io"
	"sort"
	"strings"

	"cedar/internal/bench"
	"cedar/internal/core"
	"cedar/internal/kernels"
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

// RunSuite executes all variants of the given Perfect codes (nil = full
// suite) on the Env's base machine. progress, if non-nil, receives one
// line per completed run, in submission order. The (code × variant)
// points are independent whole simulations, so they dispatch to the fleet
// worker pool; the maps are filled from the reassembled results only,
// never from worker goroutines.
func RunSuite(env Env, codes []perfect.Profile, progress io.Writer) (*SuiteResult, error) {
	if codes == nil {
		codes = perfect.All()
	}
	hand := perfect.HandOptimized()
	s := &SuiteResult{
		Profiles: codes,
		Serial:   map[string]perfect.Outcome{},
		KAP:      map[string]perfect.Outcome{},
		Auto:     map[string]perfect.Outcome{},
		NoSync:   map[string]perfect.Outcome{},
		NoPref:   map[string]perfect.Outcome{},
		Hand:     map[string]perfect.Outcome{},
	}
	type variant struct {
		dst  map[string]perfect.Outcome
		spec perfect.Spec
		only bool // only for hand-optimized codes
	}
	variants := []variant{
		{s.Serial, perfect.Spec{Variant: perfect.Serial}, false},
		{s.KAP, perfect.Spec{Variant: perfect.KAP}, false},
		{s.Auto, perfect.Spec{Variant: perfect.Auto}, false},
		{s.NoSync, perfect.Spec{Variant: perfect.Auto, NoSync: true}, false},
		{s.NoPref, perfect.Spec{Variant: perfect.Auto, NoSync: true, NoPref: true}, false},
		{s.Hand, perfect.Spec{Variant: perfect.Hand}, true},
	}
	type run struct {
		profile perfect.Profile
		v       variant
	}
	var runs []run
	var points []point
	for _, p := range codes {
		for _, v := range variants {
			if v.only && !hand[p.Name] {
				continue
			}
			runs = append(runs, run{p, v})
			points = append(points, env.programPoint(fmt.Sprintf("perfect/%s/%s", p.Name, label(v.spec)), bench.MachineSpec{},
				func(m *core.Machine) (kernels.Result, error) {
					out, err := perfect.RunOn(m, p, v.spec)
					return kernels.Result{Result: core.Result{Cycles: out.SimCycles, MFLOPS: out.MFLOPS, Seconds: out.Seconds}}, err
				}))
		}
	}
	outs, err := sweep(env, points, false)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		r := runs[i]
		r.v.dst[r.profile.Name] = perfect.Outcome{
			Code: r.profile.Name, Variant: r.v.spec.Variant,
			Seconds: out.Seconds, MFLOPS: out.MFLOPS, SimCycles: out.Cycles,
		}
		if progress != nil {
			fmt.Fprintf(progress, "  %-8s %-12v %8.1f s %7.2f MFLOPS\n",
				r.profile.Name, label(r.v.spec), out.Seconds, out.MFLOPS)
		}
	}
	return s, nil
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

// BestMFLOPS mirrors BestSeconds.
func (s *SuiteResult) BestMFLOPS(code string) float64 {
	if o, ok := s.Hand[code]; ok {
		return o.MFLOPS
	}
	return s.Auto[code].MFLOPS
}

// Names returns the code names in suite order.
func (s *SuiteResult) Names() []string {
	names := make([]string, 0, len(s.Profiles))
	for _, p := range s.Profiles {
		names = append(names, p.Name)
	}
	return names
}

// column formats a fixed-width table from rows of cells.
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

// sortedKeys returns map keys in sorted order (deterministic output).
func sortedKeys(m map[string]perfect.Outcome) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

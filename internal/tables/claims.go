package tables

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
)

// claim is one of the paper's shape claims about a catalogue entry's
// result, held as data: what the paper says, how far off still counts,
// the smallest sizes it holds at, and where to read the measured values.
// One renderer, render, states and judges every kind.
type claim struct {
	// id names the claim within its entry ("prefetch gain @3cl").
	id   string
	kind claimKind
	// paper is the paper's value: a within band's centre, a floor's
	// minimum, an inBand claim's ppt.Band. An ordering has none. tol is a
	// within band's half-width and an ordering's relative slack.
	paper, tol float64
	// deviation, when set, says why the model departs from the paper; a
	// within band is then centred on measured, the model's own value, so
	// closing a known deviation is a change to this data.
	deviation string
	measured  float64
	// needs is the smallest Sizes the claim holds at: a run below it in
	// RankN or MemBWWords, or without one of its Codes, skips the claim.
	needs Sizes
	// value reads the measured values off the entry's result.
	value func(Result) []float64
}

type claimKind int

const (
	within   claimKind = iota // every value within the band's centre ± tol
	floor                     // every value at least paper
	ordering                  // values ascending: each below the next × (1 + tol)
	inBand                    // every value is the ppt.Band paper names
)

// of adapts a reading of an entry's concrete result type to claim.value.
func of[R Result](f func(R) []float64) func(Result) []float64 {
	return func(r Result) []float64 { return f(r.(R)) }
}

// one adapts a single reading of an entry's concrete result type.
func one[R Result](f func(R) float64) func(Result) []float64 {
	return func(r Result) []float64 { return []float64{f(r.(R))} }
}

// collect reads one value off each of xs.
func collect[T any](xs []T, f func(T) float64) []float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return vs
}

// deviates marks c a known deviation: the model measures measured, for
// the reason why.
func (c claim) deviates(measured float64, why string) claim {
	c.measured, c.deviation = measured, why
	return c
}

// codes is the needs of a claim about the named Perfect codes (lacks
// reads only their names); allCodes of one about the whole suite.
func codes(names ...string) (s Sizes) {
	for _, name := range names {
		s.Codes = append(s.Codes, perfect.Profile{Name: name})
	}
	return s
}

var allCodes = Sizes{Codes: perfect.All()}

// render is c's line about r, a result run at s on a machine whose
// claims are judged unless machine says why not (see unjudged): "<id>:
// measured <values>, <what the paper says>" ("prefetch gain @3cl: measured
// 2.9, paper 2.2 ± 0.5"), then "(not judged: <why>)" if the run cannot
// judge c, for machine's reason or the first of c's sizes s lacks. judged
// says whether it can, held whether the values hold the claim. The line
// is the report's and, when the claim breaks, the error's: it never says
// whether the claim held.
func (c claim) render(r Result, s Sizes, machine string) (line string, judged, held bool) {
	centre, says := c.paper, fmt.Sprintf("paper %.4g ± %.4g", c.paper, c.tol)
	switch {
	case c.deviation != "":
		centre = c.measured
		says = fmt.Sprintf("paper %.4g, known deviation %.4g ± %.4g (%s)", c.paper, c.measured, c.tol, c.deviation)
	case c.kind == floor:
		says = fmt.Sprintf("paper ≥ %.4g", c.paper)
	case c.kind == ordering && c.tol == 0:
		says = "paper ascending"
	case c.kind == ordering:
		says = fmt.Sprintf("paper ascending within %.4g%%", 100*c.tol)
	case c.kind == inBand:
		says = "paper " + ppt.Band(c.paper).String()
	}
	why, unread := s.lacks(c.needs)
	var vs []float64
	if !unread {
		vs = c.value(r)
	}
	held = true
	shown := make([]string, len(vs))
	for i, v := range vs {
		shown[i] = fmt.Sprintf("%.4g", v)
		switch c.kind {
		case within:
			held = held && math.Abs(v-centre) <= c.tol
		case floor:
			held = held && v >= c.paper
		case ordering:
			held = held && (i == 0 || vs[i-1] < v*(1+c.tol))
		case inBand:
			held, shown[i] = held && v == c.paper, ppt.Band(v).String()
		}
	}
	line = fmt.Sprintf("%s: measured %s, %s", c.id, cmp.Or(strings.Join(shown, ", "), "nothing"), says)
	if why = cmp.Or(machine, why); why != "" {
		line += " (not judged: " + why + ")"
	}
	return line, why == "", held
}

// unjudged is why a run under env judges no claim, or "" if it judges
// them all: the claims describe the healthy as-built machine. Decided by
// the machine, not the flag: -clusters 4 builds Default.
func unjudged(env Env) string {
	switch {
	case env.Faults != nil:
		return "faulted machine"
	case env.Machine() != params.Default():
		return "rescaled machine"
	}
	return ""
}

// lacks names the first of need's sizes s falls short of, or "" if none,
// and whether it is a code s does not run (nil Codes in s is the whole
// suite), which leaves a result without the claim's values.
func (s Sizes) lacks(need Sizes) (why string, unread bool) {
	for _, p := range need.Codes {
		if s.Codes != nil && !slices.ContainsFunc(s.Codes, func(q perfect.Profile) bool { return q.Name == p.Name }) {
			return "no " + p.Name + " run", true
		}
	}
	switch {
	case s.RankN < need.RankN:
		return fmt.Sprintf("n = %d < %d", s.RankN, need.RankN), false
	case s.MemBWWords < need.MemBWWords:
		return fmt.Sprintf("%d words per CE < %d", s.MemBWWords, need.MemBWWords), false
	}
	return "", false
}

// claimTally counts what one run's judging found on a machine the
// claims describe, or nothing where machine says why not (see unjudged).
type claimTally struct {
	machine                   string
	held, skipped, deviations int
	broken                    brokenClaims
}

// judge tallies every claim of e against its result at sizes s.
func (t *claimTally) judge(e Experiment, s Sizes, r Result) {
	for _, c := range e.claims {
		switch line, judged, held := c.render(r, s, t.machine); {
		case !judged:
			t.skipped++
		case !held:
			t.broken = append(t.broken, e.Name+": "+line)
		case c.deviation != "":
			t.deviations++
			fallthrough
		default:
			t.held++
		}
	}
}

// report writes the tally line to progress, if set, and returns the
// broken claims as an error, or nil; on a machine the claims do not
// describe it does neither.
func (t *claimTally) report(progress io.Writer) error {
	if t.machine != "" {
		return nil
	}
	if progress != nil {
		fmt.Fprintf(progress, "claims: %d held, %d skipped, %d deviations, %d broken\n", t.held, t.skipped, t.deviations, len(t.broken))
	}
	if len(t.broken) == 0 {
		return nil
	}
	return t.broken
}

// brokenClaims is RunAll's error when claims broke: "<entry>: <line>" each.
type brokenClaims []string

func (b brokenClaims) Error() string {
	return fmt.Sprintf("tables: %d of the paper's claims broken:\n  %s", len(b), strings.Join(b, "\n  "))
}

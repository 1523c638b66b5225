package tables

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"cedar/internal/perfect"
	"cedar/internal/ppt"
)

// claim is one of the paper's shape claims about a catalogue entry's
// result, held as data: what the paper says, how far off still counts,
// the smallest sizes it holds at, and where to read the measured values.
// One evaluator, check, judges every kind.
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

// codes is the needs of a claim about the named Perfect codes (covers
// reads only their names); allCodes of one about the whole suite.
func codes(names ...string) (s Sizes) {
	for _, name := range names {
		s.Codes = append(s.Codes, perfect.Profile{Name: name})
	}
	return s
}

var allCodes = Sizes{Codes: perfect.All()}

// check judges c against r, a result run at sizes s: skipped below the
// claim's needs, else "" if it held or the message naming how it broke,
// "prefetch gain @3cl: measured 2.9, paper 2.2 ± 0.5".
func (c claim) check(s Sizes, r Result) (msg string, checked bool) {
	if !s.covers(c.needs) {
		return "", false
	}
	vs := c.value(r)
	centre, want := c.paper, fmt.Sprintf("paper %.4g ± %.4g", c.paper, c.tol)
	if c.deviation != "" {
		centre = c.measured
		want = fmt.Sprintf("paper %.4g, known deviation %.4g ± %.4g (%s)", c.paper, c.measured, c.tol, c.deviation)
	}
	ok := true
	shown := make([]string, len(vs))
	for i, v := range vs {
		shown[i] = fmt.Sprintf("%.4g", v)
		switch c.kind {
		case within:
			ok = ok && math.Abs(v-centre) <= c.tol
		case floor:
			ok, want = ok && v >= c.paper, fmt.Sprintf("paper ≥ %.4g", c.paper)
		case ordering:
			ok, want = ok && (i == 0 || vs[i-1] < v*(1+c.tol)), fmt.Sprintf("paper ascending within %.4g%%", 100*c.tol)
		case inBand:
			ok, want = ok && v == c.paper, "paper "+ppt.Band(c.paper).String()
			shown[i] = ppt.Band(v).String()
		}
	}
	if ok {
		return "", true
	}
	return fmt.Sprintf("%s: measured %s, %s", c.id, strings.Join(shown, ", "), want), true
}

// covers reports whether s is at least need in the fields a claim needs:
// as large a RankN and MemBWWords, and every code need lists (nil Codes in
// s is the whole suite).
func (s Sizes) covers(need Sizes) bool {
	if s.RankN < need.RankN || s.MemBWWords < need.MemBWWords {
		return false
	}
	for _, p := range need.Codes {
		if s.Codes != nil && !slices.ContainsFunc(s.Codes, func(q perfect.Profile) bool { return q.Name == p.Name }) {
			return false
		}
	}
	return true
}

// claimTally counts what one report's checks found.
type claimTally struct {
	held, skipped, deviations int
	broken                    []string
}

// check judges every claim of e against its result at sizes s.
func (t *claimTally) check(e Experiment, s Sizes, r Result) {
	for _, c := range e.claims {
		switch msg, checked := c.check(s, r); {
		case !checked:
			t.skipped++
		case msg != "":
			t.broken = append(t.broken, e.Name+": "+msg)
		case c.deviation != "":
			t.deviations++
			fallthrough
		default:
			t.held++
		}
	}
}

// report writes the tally line to progress, if set, and returns an
// error naming every broken claim, one per line, or nil.
func (t *claimTally) report(progress io.Writer) error {
	if progress != nil {
		fmt.Fprintf(progress, "claims: %d held, %d skipped, %d deviations, %d broken\n", t.held, t.skipped, t.deviations, len(t.broken))
	}
	if len(t.broken) == 0 {
		return nil
	}
	return fmt.Errorf("tables: %d of the paper's claims broken:\n  %s", len(t.broken), strings.Join(t.broken, "\n  "))
}

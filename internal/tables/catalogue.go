package tables

import (
	"cmp"
	"fmt"
	"strings"

	"cedar/internal/bench"
	"cedar/internal/perfect"
)

// Sizes are the problem sizes a catalogue run uses; each experiment
// reads the fields it has a use for. The report and cedarsim differ only
// in these and in which names they list.
type Sizes struct {
	// RankN is the rank-64 update order (paper: 1K) of t1, net,
	// prefblock, scaled and degraded; zero is 256.
	RankN int
	// Table2Full selects t2's full kernel slices instead of the reduced
	// ones.
	Table2Full bool
	// MemBWWords is what each CE streams in membw; zero is 2048.
	MemBWWords int
	// FullPPT4 includes the paper's largest CG sizes in ppt4.
	FullPPT4 bool
	// Codes are the Perfect codes of t3, t4, t5, t6 and fig3 (nil: all 13).
	Codes []perfect.Profile
}

// resolved fills s's zero sizes with their defaults, so a table's title,
// its result, its claims and its simulated points all name the same size.
func (s Sizes) resolved() Sizes {
	s.RankN = cmp.Or(s.RankN, 256)
	s.MemBWWords = cmp.Or(s.MemBWWords, 2048)
	return s
}

// Result is a finished experiment: it renders itself as the paper-layout
// table, and marshals to the JSON cedarsim -json emits.
type Result interface{ Format() string }

// Experiment is one entry of the catalogue: a sweep of simulated points
// and the table their outcomes make.
type Experiment struct {
	// Name identifies the experiment.
	Name string
	// title is the report's section heading at resolved sizes.
	title func(Sizes) string
	// points lists the sweep under an Env at the given sizes — data, not
	// yet run; table assembles the result from the same points and their
	// outcomes, in the same order.
	points func(Env, Sizes) []point
	table  func(Sizes, []point, []bench.PointOutcome) Result
	// ns is the hub namespace the points report under when it is not Name:
	// the five tables over the Perfect suite share its points, under
	// "perfect".
	ns string
	// degrades makes a point that degrades under its plan a row of the
	// table instead of the sweep's error.
	degrades bool
	// claims are the paper's claims about the table, which WriteReport checks.
	claims []claim
}

// Namespace is the hub namespace the experiment's points report under
// ("t1/pref/2cl" belongs to t1, "perfect/QCD/auto" to t3 … fig3) — the
// prefix cedarsim -json slices its metrics by.
func (e Experiment) Namespace() string { return cmp.Or(e.ns, e.Name) }

// Title is the experiment's report section heading when it runs at s.
func (e Experiment) Title(s Sizes) string { return e.title(s.resolved()) }

// RunAll runs the experiments in order under env at the given sizes and
// hands each result to emit as soon as its table is assembled. A scope
// names one point, and each simulates once per call: an experiment that
// lists a scope an earlier one already simulated reuses that outcome (t3,
// t4, t5, t6 and fig3 share the Perfect suite's points). Nothing is kept
// between calls. A zero size runs at its default (see Sizes).
func RunAll(env Env, s Sizes, exps []Experiment, emit func(Experiment, Result) error) error {
	s = s.resolved()
	done := map[string]bench.PointOutcome{}
	for _, e := range exps {
		pts := e.points(env, s)
		var todo []point
		for _, pt := range pts {
			if _, ok := done[pt.scope]; !ok {
				todo = append(todo, pt)
			}
		}
		outs, err := sweep(env, todo, e.degrades)
		if err != nil {
			return err
		}
		for i, pt := range todo {
			done[pt.scope] = outs[i]
		}
		all := make([]bench.PointOutcome, len(pts))
		for i, pt := range pts {
			all[i] = done[pt.scope]
		}
		if err := emit(e, e.table(s, pts, all)); err != nil {
			return err
		}
	}
	return nil
}

func fixed(title string) func(Sizes) string { return func(Sizes) string { return title } }

// catalogue lists every experiment of the evaluation once; WriteReport
// and cedarsim each take an ordered list of names into it.
var catalogue = []Experiment{
	{Name: "overheads", title: fixed("§3.2 runtime overheads"), points: overheadsPoints, table: overheadsTable, claims: overheadsClaims},
	{Name: "t1", title: func(s Sizes) string { return fmt.Sprintf("Table 1 — rank-64 update (n=%d)", s.RankN) },
		points: table1Points, table: table1Table, claims: table1Claims()},
	{Name: "t2", title: fixed("Table 2 — global memory performance"), points: table2Points, table: table2Table, claims: table2Claims()},
	{Name: "membw", title: fixed("[GJTV91] memory characterization"), points: memBWPoints, table: memBWTable, claims: memBWClaims},
	{Name: "net", title: fixed("[Turn93] network ablation"), points: netPoints, table: netTable, claims: netClaims},
	{Name: "prefblock", title: fixed("Prefetch block-size ablation"), points: prefBlockPoints, table: prefBlockTable, claims: prefBlockClaims},
	{Name: "sched", title: fixed("Loop scheduling ablation"), points: schedPoints, table: schedTable, claims: schedClaims},
	{Name: "scaled", title: fixed("PPT5 probe — scaled Cedar"), points: scaledPoints, table: scaledTable, claims: scaledClaims},
	{Name: "degraded", title: fixed("Degraded mode — fault scenarios"), points: degradedPoints, table: degradedTable, degrades: true},
	{Name: "t3", title: fixed("Table 3 — Perfect Benchmarks"), points: suitePoints, ns: "perfect", table: suiteTable(BuildTable3), claims: table3Claims()},
	{Name: "t4", title: fixed("Table 4 — manually altered Perfect codes"), points: suitePoints, ns: "perfect", table: suiteTable(BuildTable4), claims: table4Claims()},
	{Name: "t5", title: fixed("Table 5 — instability"), points: suitePoints, ns: "perfect", table: suiteTable(BuildTable5), claims: table5Claims()},
	{Name: "t6", title: fixed("Table 6 — restructuring efficiency"), points: suitePoints, ns: "perfect", table: suiteTable(BuildTable6), claims: table6Claims},
	{Name: "fig3", title: fixed("Figure 3 — YMP/8 vs Cedar efficiency"), points: suitePoints, ns: "perfect", table: suiteTable(BuildFigure3), claims: figure3Claims},
	{Name: "ppt4", title: fixed("PPT4 — scalability"), points: ppt4Points, table: ppt4Table, claims: ppt4Claims},
}

// Kernels is the report's kernel-level half in section order; Evaluation
// is the whole report: the kernels, the Perfect tables and the
// methodology.
var (
	Kernels    = []string{"overheads", "t1", "t2", "membw", "net", "prefblock", "sched", "scaled"}
	Evaluation = append(Kernels[:len(Kernels):len(Kernels)], "t3", "t4", "t5", "t6", "fig3", "ppt4")
)

// Experiments returns the named catalogue entries in the order given, or
// an error naming the first unknown name and listing the valid ones.
func Experiments(names ...string) ([]Experiment, error) {
	out := make([]Experiment, 0, len(names))
next:
	for _, name := range names {
		for _, e := range catalogue {
			if e.Name == name {
				out = append(out, e)
				continue next
			}
		}
		return nil, fmt.Errorf("tables: no experiment named %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return out, nil
}

// Names lists every catalogue entry's name in catalogue order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.Name
	}
	return names
}

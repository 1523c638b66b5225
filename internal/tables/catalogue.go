package tables

import (
	"fmt"

	"cedar/internal/bench"
)

// Sizes are the problem sizes a catalogue run uses; each experiment
// reads the fields it has a use for. The report and cedarsim differ only
// in these and in which names they list.
type Sizes struct {
	// RankN is the rank-64 update order (paper: 1K) of t1, net,
	// prefblock, scaled and degraded.
	RankN int
	// Table2Small selects t2's reduced kernel slices.
	Table2Small bool
	// MemBWWords is what each CE streams in membw.
	MemBWWords int
	// FullPPT4 includes the paper's largest CG sizes in ppt4.
	FullPPT4 bool
}

// Result is a finished experiment: it renders itself as the paper-layout
// table, and marshals to the JSON cedarsim -json emits.
type Result interface{ Format() string }

// Experiment is one entry of the catalogue: a sweep of simulated points
// and the table their outcomes make.
type Experiment struct {
	// Name identifies the experiment; it is also the scope namespace its
	// points report under ("t1/pref/2cl" belongs to "t1").
	Name string
	// Title is the report's section heading.
	Title func(Sizes) string
	// points lists the sweep under an Env at the given sizes — data, not
	// yet run; table assembles the result from the same points and their
	// outcomes, in the same order.
	points func(Env, Sizes) []point
	table  func(Sizes, []point, []bench.PointOutcome) Result
	// degrades makes a point that degrades under its plan a row of the
	// table instead of the sweep's error.
	degrades bool
}

// Run executes the experiment under env at the given sizes.
func (e Experiment) Run(env Env, s Sizes) (Result, error) {
	pts := e.points(env, s)
	outs, err := sweep(env, pts, e.degrades)
	if err != nil {
		return nil, err
	}
	return e.table(s, pts, outs), nil
}

// runAs runs the named experiment for a RunTable1-style entry point that
// promises its concrete result type.
func runAs[R Result](env Env, name string, s Sizes) (R, error) {
	res, err := Experiments(name)[0].Run(env, s)
	r, _ := res.(R)
	return r, err
}

func fixed(title string) func(Sizes) string { return func(Sizes) string { return title } }

// catalogue lists every kernel-level experiment once; WriteReport and
// cedarsim each keep only an ordered list of names into it.
var catalogue = []Experiment{
	{Name: "overheads", Title: fixed("§3.2 runtime overheads"), points: overheadsPoints, table: overheadsTable},
	{Name: "t1", Title: func(s Sizes) string { return fmt.Sprintf("Table 1 — rank-64 update (n=%d)", s.RankN) },
		points: table1Points, table: table1Table},
	{Name: "t2", Title: fixed("Table 2 — global memory performance"), points: table2Points, table: table2Table},
	{Name: "membw", Title: fixed("[GJTV91] memory characterization"), points: memBWPoints, table: memBWTable},
	{Name: "net", Title: fixed("[Turn93] network ablation"), points: netPoints, table: netTable},
	{Name: "prefblock", Title: fixed("Prefetch block-size ablation"), points: prefBlockPoints, table: prefBlockTable},
	{Name: "sched", Title: fixed("Loop scheduling ablation"), points: schedPoints, table: schedTable},
	{Name: "scaled", Title: fixed("PPT5 probe — scaled Cedar"), points: scaledPoints, table: scaledTable},
	{Name: "degraded", Title: fixed("Degraded mode — fault scenarios"), points: degradedPoints, table: degradedTable, degrades: true},
	{Name: "ppt4", Title: fixed("PPT4 — scalability"), points: ppt4Points, table: ppt4Table},
}

// Experiments returns the named catalogue entries in the order given.
// Panics on an unknown name: callers pass literals, so that is a typo.
func Experiments(names ...string) []Experiment {
	out := make([]Experiment, 0, len(names))
next:
	for _, name := range names {
		for _, e := range catalogue {
			if e.Name == name {
				out = append(out, e)
				continue next
			}
		}
		panic(fmt.Sprintf("tables: no experiment named %q", name))
	}
	return out
}

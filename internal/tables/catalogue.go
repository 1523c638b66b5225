package tables

import "fmt"

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
// producing one table.
type Experiment struct {
	// Name identifies the experiment; it is also the scope namespace its
	// points report under ("t1/pref/2cl" belongs to "t1").
	Name string
	// Title is the report's section heading.
	Title func(Sizes) string
	// Run executes the experiment under env at the given sizes.
	Run func(Env, Sizes) (Result, error)
}

func fixed(title string) func(Sizes) string { return func(Sizes) string { return title } }

// catalogue lists every kernel-level experiment once; WriteReport and
// cedarsim each keep only an ordered list of names into it.
var catalogue = []Experiment{
	{"overheads", fixed("§3.2 runtime overheads"),
		func(env Env, s Sizes) (Result, error) { return RunOverheads(env) }},
	{"t1", func(s Sizes) string { return fmt.Sprintf("Table 1 — rank-64 update (n=%d)", s.RankN) },
		func(env Env, s Sizes) (Result, error) { return RunTable1(env, s.RankN) }},
	{"t2", fixed("Table 2 — global memory performance"),
		func(env Env, s Sizes) (Result, error) { return RunTable2(env, s.Table2Small) }},
	{"membw", fixed("[GJTV91] memory characterization"),
		func(env Env, s Sizes) (Result, error) { return RunMemBW(env, s.MemBWWords) }},
	{"net", fixed("[Turn93] network ablation"),
		func(env Env, s Sizes) (Result, error) { return RunNetworkAblation(env, s.RankN) }},
	{"prefblock", fixed("Prefetch block-size ablation"),
		func(env Env, s Sizes) (Result, error) { return RunPrefetchBlockAblation(env, s.RankN) }},
	{"sched", fixed("Loop scheduling ablation"),
		func(env Env, s Sizes) (Result, error) { return RunSchedulingAblation(env) }},
	{"scaled", fixed("PPT5 probe — scaled Cedar"),
		func(env Env, s Sizes) (Result, error) { return RunScaledCedar(env, s.RankN) }},
	{"degraded", fixed("Degraded mode — fault scenarios"),
		func(env Env, s Sizes) (Result, error) { return RunDegraded(env, s.RankN) }},
	{"ppt4", fixed("PPT4 — scalability"),
		func(env Env, s Sizes) (Result, error) { return RunPPT4(env, s.FullPPT4) }},
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

// Command cedarsim regenerates the paper's evaluation — every table,
// figure, microbenchmark and ablation — as one markdown report on stdout,
// a heading per catalogue entry. With no names it runs the whole
// evaluation, every entry but degraded (expect several minutes at
// defaults); names pick entries: overheads (§3.2), t1 and t2 (the memory
// study), membw ([GJTV91]), net, prefblock and sched (the design
// ablations), scaled (PPT5), degraded (fault scenarios), t3 and t4 (the
// Perfect results), t5, t6 and fig3 (the methodology) and ppt4. Each
// section ends with one line per paper claim about the entry: what was
// measured and what the paper says. On the healthy default machine
// cedarsim also judges those claims, with or without -json, and exits 1
// naming any that broke; stdout is the same either way.
//
// Usage:
//
//	cedarsim [flags] [name...]
//	cedarsim > report.md                 # the whole evaluation
//	cedarsim -n 512 -full                # closer to paper-scale problems
//	cedarsim -codes ARC2D,QCD,SPICE      # fast Perfect subset
//	cedarsim -small t2 net prefblock sched
//	cedarsim -faults plan.json t1        # every machine under the plan, plus degraded
//	cedarsim -faults demo degraded       # the built-in dead-bank scenario
//
// Flags may come before or after the names. Names run in the order given,
// and a point several of them share (t3 … fig3 share the Perfect suite's)
// simulates once. -small runs t2 on its reduced kernel slices and membw at
// 2,048 words per CE, the sizes of the committed report golden.
//
// Any run accepts -trace FILE (Chrome trace-event JSON for Perfetto or
// chrome://tracing) and -metrics FILE (metrics snapshot CSV); with either,
// the report ends with a cycle-attribution section. -json replaces the
// report with one JSON document per entry, embedding the entry's metric
// snapshot next to its result and leading with a header that names the
// tool and the fault plan. -jobs N simulates independent experiment points
// in parallel; output, -json header included, is byte-identical at any
// job count. -faults installs a seed-deterministic fault plan for every
// machine the command builds and adds the degraded-mode table. Progress goes to stderr, one line per
// simulated point and then the claims tally; -q silences both.
// -cpuprofile/-memprofile write pprof profiles of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"cedar/internal/cliutil"
	"cedar/internal/fault"
	"cedar/internal/perfect"
	"cedar/internal/scope"
	"cedar/internal/tables"
)

// headerSchema versions the -json header (4: the header names the
// invocation's inputs only, no longer the jobs value or the host's
// parallelism).
const headerSchema = 4

// header leads every -json document, so that the document says which
// tool wrote it under which fault plan. It records the run's inputs and
// never its host: the documents are the same bytes at any -jobs.
type header struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	// FaultSeed and FaultPlan identify the run's fault plan (absent when
	// healthy); FaultPlan is the plan's short content hash.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	FaultPlan string `json:"fault_plan,omitempty"`
}

// newHeader builds the header of a run under plan (nil: healthy).
func newHeader(plan *fault.Plan) header {
	h := header{Schema: headerSchema, Tool: "cedarsim"}
	if plan != nil {
		h.FaultSeed, h.FaultPlan = plan.Seed, plan.Hash()
	}
	return h
}

// emit prints one result as JSON, led by the header, with the
// experiment's slice of hub's metrics registry alongside it (-json always
// observes).
func emit(w io.Writer, hub *scope.Hub, h header, prefix string, res tables.Result) error {
	out := struct {
		Header  header         `json:"header"`
		Result  interface{}    `json:"result"`
		Metrics []scope.Sample `json:"metrics"`
	}{h, res, hub.SnapshotUnder(prefix)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// checkClusters rejects a negative -clusters width (0 keeps the as-built
// machine); tables.Fit checks each point's machine at a positive one.
func checkClusters(clusters int) error {
	if clusters < 0 {
		return fmt.Errorf("-clusters %d: params: clusters must be ≥ 1, got %d", clusters, clusters)
	}
	return nil
}

// loadPlan reads the -faults plan: none when empty, the built-in
// dead-bank-plus-network-fault scenario for "demo", else a JSON file.
func loadPlan(faults string) (*fault.Plan, error) {
	switch faults {
	case "":
		return nil, nil
	case "demo":
		return fault.DemoPlan(), nil
	}
	return fault.Load(faults)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarsim: ", 0)
	fs := flag.NewFlagSet("cedarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: cedarsim [flags] [name...]")
		fmt.Fprintln(stderr, "names:", strings.Join(tables.Names(), " "))
		fs.PrintDefaults()
	}
	var (
		n      = fs.Int("n", 256, "rank-64 update order of t1, net, prefblock, scaled and degraded (paper: 1K)")
		small  = fs.Bool("small", false, "the report golden's sizes: reduced kernel slices for t2, 2,048 words per CE for membw")
		full   = fs.Bool("full", false, "include the paper's largest CG sizes in ppt4")
		codes  = fs.String("codes", "", "comma-separated Perfect subset for t3, t4, t5, t6 and fig3 (default: all 13)")
		asJSON = fs.Bool("json", false, "emit results as JSON instead of the report")
		quiet  = fs.Bool("q", false, "suppress per-point progress lines")

		trace    = fs.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
		metrics  = fs.String("metrics", "", "write the metrics snapshot as CSV")
		jobs     = fs.Int("jobs", 0, "parallel experiment jobs (default GOMAXPROCS; a value you set must be at least 1); output is identical at any value")
		clusters = fs.Int("clusters", 0, "simulated machine width in clusters (0 = as-built 4; 16/64 = scale-up presets)")
		faults   = fs.String("faults", "", "JSON fault plan (or \"demo\") injected into every simulated machine")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	names, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if err := cliutil.AtLeastOne("n", *n); err != nil {
		lg.Print(err)
		return 2
	}
	if len(names) == 0 {
		names = tables.Evaluation
	}
	if *faults != "" && !slices.Contains(names, "degraded") {
		names = append(names[:len(names):len(names)], "degraded")
	}
	exps, err := tables.Experiments(names...)
	if err != nil {
		lg.Print(err)
		return 2
	}
	sizes := tables.Sizes{RankN: *n, FullPPT4: *full}
	if !*small {
		sizes.Table2Full, sizes.MemBWWords = true, 4096
	}
	if sizes.Codes, err = perfect.Select(*codes); err != nil {
		lg.Print(err)
		return 2
	}
	env := tables.Env{Jobs: *jobs, Clusters: *clusters}
	if err := cliutil.CheckJobs(fs, *jobs); err != nil {
		lg.Print(err)
		return 2
	}
	if err := checkClusters(*clusters); err != nil {
		lg.Print(err)
		return 2
	}
	if env.Faults, err = loadPlan(*faults); err != nil {
		lg.Print(err)
		return 2
	}
	if err := tables.Fit(env, sizes, exps); err != nil {
		if *clusters > 0 {
			err = fmt.Errorf("%w (-clusters %d)", err, *clusters)
		}
		lg.Print(err)
		return 2
	}
	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		lg.Print(err)
		return 2
	}
	// The hub exists whenever an artifact asks for it; -json wants each
	// experiment's metrics next to its result, so it observes too.
	// Otherwise machines are built uninstrumented at zero cost.
	if *trace != "" || *metrics != "" || *asJSON {
		env.Hub = scope.NewHub()
	}
	if !*quiet {
		env.Progress = stderr
	}
	if *asJSON {
		h := newHeader(env.Faults)
		err = tables.RunAll(env, sizes, exps, func(e tables.Experiment, res tables.Result) error {
			return emit(stdout, env.Hub, h, e.Namespace(), res)
		})
	} else {
		err = tables.WriteReport(stdout, env, sizes, exps)
	}
	// A broken claim fails the run after the report or the JSON documents,
	// and the artifacts and profiles, are written.
	if err := errors.Join(err, scope.WriteArtifacts(env.Hub, *trace, *metrics), prof.Stop()); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

// Command cedarsim runs experiments of the paper's evaluation by
// catalogue name and prints each one's table: overheads (§3.2), t1 and t2
// (the memory study), membw ([GJTV91]), net, prefblock and sched (the
// design ablations), scaled (PPT5), degraded (fault scenarios), t3 and t4
// (the Perfect results), t5, t6 and fig3 (the methodology) and ppt4.
//
// Usage:
//
//	cedarsim [flags] name...
//	cedarsim -n 512 t1
//	cedarsim -small t2 net prefblock sched
//	cedarsim -codes ARC2D,QCD,SPICE t3 t4 t5 t6 fig3
//	cedarsim -full ppt4
//	cedarsim -faults plan.json t1   # every machine under the plan, plus degraded
//	cedarsim -faults demo           # degraded under the built-in dead-bank scenario
//
// Flags may come before or after the names. Names run in the order given,
// and a point several of them share (t3 … fig3 share the Perfect suite's)
// simulates once. cedarreport runs every name but degraded as one report.
//
// Any run accepts -trace FILE (Chrome trace-event JSON for Perfetto or
// chrome://tracing) and -metrics FILE (metrics snapshot CSV); -json embeds
// the per-run metric snapshot next to each result. -jobs N simulates
// independent experiment points in parallel; output is byte-identical at
// any job count. -faults installs a seed-deterministic fault plan for
// every machine the command builds and adds the degraded-mode table.
// Progress goes to stderr, one line per simulated point; -q silences it.
// -cpuprofile/-memprofile write pprof profiles of the run; -json output
// leads with a self-describing run-metadata header.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"cedar/internal/cliutil"
	"cedar/internal/perfect"
	"cedar/internal/scope"
	"cedar/internal/tables"
)

// emit prints either the formatted table or its JSON representation.
// JSON output leads with the run-metadata header (schema, tool, jobs,
// fault plan), making every artifact self-describing; with a hub
// attached it also carries the experiment's slice of the metrics
// registry alongside the result. The header is the only jobs-dependent
// part — byte comparisons across -jobs values look at result+metrics.
func emit(w io.Writer, asJSON bool, hub *scope.Hub, meta cliutil.Meta, prefix string, res tables.Result) error {
	if !asJSON {
		_, err := fmt.Fprintln(w, res.Format())
		return err
	}
	var out interface{}
	if hub != nil {
		out = struct {
			Header  cliutil.Meta   `json:"header"`
			Result  interface{}    `json:"result"`
			Metrics []scope.Sample `json:"metrics"`
		}{meta, res, hub.SnapshotUnder(prefix)}
	} else {
		out = struct {
			Header cliutil.Meta `json:"header"`
			Result interface{}  `json:"result"`
		}{meta, res}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
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
		fmt.Fprintln(stderr, "Usage: cedarsim [flags] name...")
		fmt.Fprintln(stderr, "names:", strings.Join(tables.Names(), " "))
		fs.PrintDefaults()
	}
	var (
		n      = fs.Int("n", 256, "rank-64 update order of t1, net, prefblock, scaled and degraded (paper: 1K)")
		small  = fs.Bool("small", false, "reduced kernel slices for t2")
		full   = fs.Bool("full", false, "include the paper's largest CG sizes in ppt4")
		codes  = fs.String("codes", "", "comma-separated Perfect subset for t3, t4, t5, t6 and fig3 (default: all 13)")
		asJSON = fs.Bool("json", false, "emit results as JSON instead of tables")
		quiet  = fs.Bool("q", false, "suppress per-point progress lines")
		shared = cliutil.Register(fs, true)
	)
	names, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if err := cliutil.AtLeastOne("n", *n); err != nil {
		lg.Print(err)
		return 2
	}
	if shared.Faults != "" && !slices.Contains(names, "degraded") {
		names = append(names, "degraded")
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	exps, err := tables.Experiments(names...)
	if err != nil {
		lg.Print(err)
		return 2
	}
	sizes := tables.Sizes{RankN: *n, Table2Full: !*small, MemBWWords: 4096, FullPPT4: *full}
	if sizes.Codes, err = perfect.Select(*codes); err != nil {
		lg.Print(err)
		return 2
	}
	// -json wants each experiment's metrics next to its result, so it
	// observes even without -trace/-metrics.
	s, err := shared.Open(fs, *asJSON)
	if err != nil {
		lg.Print(err)
		return 2
	}
	defer s.Abort()
	env := s.Env
	if !*quiet {
		env.Progress = stderr
	}
	meta := cliutil.NewMeta("cedarsim", env.Jobs, env.Faults)
	err = tables.RunAll(env, sizes, exps, func(e tables.Experiment, res tables.Result) error {
		return emit(stdout, *asJSON, env.Hub, meta, e.Namespace(), res)
	})
	if err == nil {
		err = s.Close(stdout, !*asJSON)
	}
	if err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

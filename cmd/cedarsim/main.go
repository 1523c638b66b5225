// Command cedarsim regenerates the kernel-level experiments of the paper:
// Table 1 (rank-64 update memory study), Table 2 (global memory latency
// and interarrival), the §3.2 runtime overheads, and the design ablations
// (network type and queue depth, prefetch block size, scaled-up Cedar).
//
// Usage:
//
//	cedarsim -table 1 [-n 512]
//	cedarsim -table 2 [-small]
//	cedarsim -overheads
//	cedarsim -ablation net|pref|sched [-n 256]
//	cedarsim -scaled [-n 256]
//	cedarsim -membw
//	cedarsim -faults plan.json   # degraded-mode table under a fault plan
//	cedarsim -faults demo        # ... under the built-in dead-bank scenario
//	cedarsim -all
//
// Any run accepts -trace FILE (Chrome trace-event JSON for Perfetto or
// chrome://tracing) and -metrics FILE (metrics snapshot CSV); -json embeds
// the per-run metric snapshot next to each result. -jobs N simulates
// independent experiment points in parallel; output is byte-identical at
// any job count. -faults installs a seed-deterministic fault plan for
// every machine the command builds and adds the degraded-mode table.
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

	"cedar/internal/cliutil"
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
	var (
		table     = fs.Int("table", 0, "regenerate table 1 or 2")
		n         = fs.Int("n", 256, "matrix order for the rank-64 update (paper: 1K)")
		small     = fs.Bool("small", false, "reduced problem sizes for table 2")
		overheads = fs.Bool("overheads", false, "measure runtime library overheads")
		ablation  = fs.String("ablation", "", "run an ablation: net, pref, or sched")
		scaled    = fs.Bool("scaled", false, "run the scaled-Cedar PPT5 probe")
		membw     = fs.Bool("membw", false, "run the [GJTV91] memory characterization sweep")
		asJSON    = fs.Bool("json", false, "emit results as JSON instead of tables")
		all       = fs.Bool("all", false, "run everything")
		shared    = cliutil.Register(fs, true)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *table < 0 || *table > 2 {
		lg.Printf("unknown -table %d (accepted: 1, 2)", *table)
		return 2
	}
	switch *ablation {
	case "", "net", "pref", "sched":
	default:
		lg.Printf("unknown -ablation %q (accepted: net, pref, sched)", *ablation)
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
	meta := cliutil.NewMeta("cedarsim", env.Jobs, env.Faults)

	// Catalogue names in output order, each with the flag that selects
	// it; -faults adds the degraded-mode table.
	var names []string
	for _, pick := range []struct {
		name string
		on   bool
	}{
		{"overheads", *overheads},
		{"t1", *table == 1},
		{"t2", *table == 2},
		{"net", *ablation == "net"},
		{"sched", *ablation == "sched"},
		{"prefblock", *ablation == "pref"},
		{"scaled", *scaled},
		{"membw", *membw},
		{"degraded", env.Faults != nil},
	} {
		if *all || pick.on {
			names = append(names, pick.name)
		}
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	sizes := tables.Sizes{RankN: *n, Table2Small: *small, MemBWWords: 4096}
	for _, e := range tables.Experiments(names...) {
		res, err := e.Run(env, sizes)
		if err == nil {
			err = emit(stdout, *asJSON, env.Hub, meta, e.Name, res)
		}
		if err != nil {
			lg.Print(err)
			return 1
		}
	}
	if err := s.Close(stdout, !*asJSON); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

// Command judge applies the paper's §4.3 methodology — the Practical
// Parallelism Tests — to the simulated Cedar and the comparator machines:
// Table 5 (instability of the Perfect ensembles on Cedar, Cray-1 and
// YMP/8), Table 6 (restructuring efficiency bands), Figure 3 (the
// YMP-vs-Cedar efficiency scatter for hand-optimized codes) and the PPT4
// scalability study (CG on Cedar against banded matvec on the CM-5).
//
// Usage:
//
//	judge                 # tables 5 and 6 plus figure 3 (runs the suite)
//	judge -ppt4 [-full]   # the scalability study only
//	judge -all
//	judge -trace t.json -metrics m.csv   # observability artifacts
//	judge -jobs 8         # parallel suite/sweep points, identical output
//	judge -faults plan.json   # every machine runs under the fault plan
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cedar/internal/cliutil"
	"cedar/internal/tables"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "judge: ", 0)
	fs := flag.NewFlagSet("judge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ppt4Only = fs.Bool("ppt4", false, "run only the PPT4 scalability study")
		full     = fs.Bool("full", false, "use the paper's largest problem sizes")
		all      = fs.Bool("all", false, "run everything")
		quiet    = fs.Bool("q", false, "suppress per-run progress lines")
		shared   = cliutil.Register(fs, false)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := shared.Open(fs, false)
	if err != nil {
		lg.Print(err)
		return 2
	}
	defer s.Abort()

	if !*ppt4Only || *all {
		var progress io.Writer = stderr
		if *quiet {
			progress = nil
		}
		suite, err := tables.RunSuite(s.Env, nil, progress)
		if err != nil {
			lg.Print(err)
			return 1
		}
		fmt.Fprintln(stdout, "Table 5: Instability for Perfect codes")
		fmt.Fprintln(stdout, tables.BuildTable5(suite).Format())
		fmt.Fprintln(stdout, "Table 6: Restructuring Efficiency")
		fmt.Fprintln(stdout, tables.BuildTable6(suite).Format())
		fmt.Fprintln(stdout, "Figure 3: Cray YMP/8 vs Cedar Efficiency")
		fmt.Fprintln(stdout, tables.BuildFigure3(suite).Format())
	}
	if *ppt4Only || *all {
		res, err := tables.RunPPT4(s.Env, *full)
		if err != nil {
			lg.Print(err)
			return 1
		}
		fmt.Fprintln(stdout, "PPT4: code and architecture scalability")
		fmt.Fprintln(stdout, res.Format())
	}
	if err := s.Close(stdout, true); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

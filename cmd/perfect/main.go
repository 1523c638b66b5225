// Command perfect runs the Perfect Benchmarks® proxy suite on the
// simulated Cedar and prints Tables 3 and 4: execution time, MFLOPS and
// speed improvement for the KAP-compiled and automatable versions (with
// the no-Cedar-sync and no-prefetch ablations), and the hand-optimized
// results.
//
// Usage:
//
//	perfect              # full 13-code suite (several minutes)
//	perfect -codes ARC2D,QCD,SPICE
//	perfect -q           # suppress per-run progress
//	perfect -trace t.json -metrics m.csv   # observability artifacts
//	perfect -jobs 8      # parallel code/variant runs, identical output
//	perfect -faults plan.json   # every machine runs under the fault plan
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cedar/internal/cliutil"
	"cedar/internal/perfect"
	"cedar/internal/tables"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "perfect: ", 0)
	fs := flag.NewFlagSet("perfect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		codesFlag = fs.String("codes", "", "comma-separated subset of codes (default: all 13)")
		quiet     = fs.Bool("q", false, "suppress per-run progress lines")
		shared    = cliutil.Register(fs, false)
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

	codes, err := perfect.Select(*codesFlag)
	if err != nil {
		lg.Print(err)
		return 2
	}

	var progress io.Writer = stderr
	if *quiet {
		progress = nil
	}
	suite, err := tables.RunSuite(s.Env, codes, progress)
	if err != nil {
		lg.Print(err)
		return 1
	}
	fmt.Fprintln(stdout, "Table 3: Cedar execution time, MFLOPS and speed improvement for the Perfect Benchmarks")
	fmt.Fprintln(stdout, tables.BuildTable3(suite).Format())
	fmt.Fprintln(stdout, "Table 4: execution times for manually altered Perfect codes")
	fmt.Fprintln(stdout, tables.BuildTable4(suite).Format())
	if err := s.Close(stdout, true); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

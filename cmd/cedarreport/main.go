// Command cedarreport regenerates the paper's complete evaluation —
// every table, figure, microbenchmark and ablation — as one markdown
// report on stdout: cedarsim over every catalogue name but degraded, with
// a heading per section (expect several minutes at defaults). On the
// healthy as-built machine it also checks the paper's claims about each
// table and exits 1 naming any that broke; stdout is the same report
// either way.
//
// Usage:
//
//	cedarreport > report.md
//	cedarreport -n 512 -full           # closer to paper-scale problems
//	cedarreport -codes ARC2D,QCD,SPICE # fast Perfect subset
//	cedarreport -kernels-only          # the kernel-level names only
//	cedarreport -trace t.json -metrics m.csv   # observability artifacts
//	cedarreport -jobs 8                # parallel experiment points, identical report
//	cedarreport -faults plan.json      # every machine runs under the fault plan
package main

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"time"

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
	lg := log.New(stderr, "cedarreport: ", 0)
	fs := flag.NewFlagSet("cedarreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 256, "rank-64 update order (paper: 1K)")
		full     = fs.Bool("full", false, "use the paper's largest CG sizes")
		codes    = fs.String("codes", "", "comma-separated Perfect subset (default all 13)")
		kernOnly = fs.Bool("kernels-only", false, "skip the Perfect suite and methodology")
		quiet    = fs.Bool("q", false, "suppress progress lines")
		shared   = cliutil.Register(fs, false)
	)
	extra, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if len(extra) > 0 {
		lg.Printf("unexpected arguments %v", extra)
		return 2
	}
	if err := cliutil.AtLeastOne("n", *n); err != nil {
		lg.Print(err)
		return 2
	}
	cfg := tables.ReportConfig{
		Names: tables.Evaluation,
		Sizes: tables.Sizes{RankN: *n, FullPPT4: *full},
		// The CLI wants the elapsed-time trailer; library callers get
		// byte-identical reports by leaving Now nil.
		Now: time.Now,
	}
	if *kernOnly {
		cfg.Names = tables.Kernels
	}
	if cfg.Sizes.Codes, err = perfect.Select(*codes); err != nil {
		lg.Print(err)
		return 2
	}
	s, err := shared.Open(fs, false)
	if err != nil {
		lg.Print(err)
		return 2
	}
	defer s.Abort()
	// A hub in the Env adds the cycle-attribution section.
	cfg.Env = s.Env
	if !*quiet {
		cfg.Env.Progress = stderr
	}
	// A broken claim fails the run after the report and its artifacts are
	// written.
	if err := errors.Join(tables.WriteReport(stdout, cfg), s.Close(stdout, false)); err != nil {
		lg.Print(err)
		return 1
	}
	return 0
}

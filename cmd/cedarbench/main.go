// Command cedarbench runs declarative performance campaigns and diffs
// their artifacts — the perf-trajectory tool scripts/check.sh and CI
// drive on every PR.
//
// Usage:
//
//	cedarbench run -config bench/campaigns/smoke.json   # -> BENCH_smoke.json
//	cedarbench run -config c.json -out artifacts/BENCH_area.json
//	cedarbench run -config c.json -jobs 8               # override the campaign's jobs list
//	cedarbench run -config c.json -cpuprofile cpu.pb.gz # attribute a flagged regression
//	cedarbench run -config c.json -stepped              # same bytes on the per-cycle engine
//	cedarbench diff old.json new.json
//
// `run` executes every (machine × workload × fault) point of the
// campaign through the fleet pool once per declared jobs value and
// writes a BENCH_<area>.json artifact; the run fails if the
// deterministic section is not byte-identical across passes. A campaign
// names its own machines (a scale-up point is an entry with "scaled":
// 16) and fault plans. `diff` compares two artifacts and exits 1 when a
// point's simcycles grew by more than 5%, a pass's allocations by more
// than 30%, or a point vanished or changed status — CI's regression
// gate, with fixed thresholds.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"cedar/internal/bench"
	"cedar/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) passed
// in, so tests can drive invalid invocations without forking.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "cedarbench: usage: cedarbench run|diff [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return runCampaign(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "cedarbench: unknown mode %q (want run or diff)\n", args[0])
	return 2
}

func runCampaign(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarbench: ", 0)
	fs := flag.NewFlagSet("cedarbench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config  = fs.String("config", "", "campaign config JSON (required; the standing ones are under bench/campaigns)")
		out     = fs.String("out", "", "artifact path (default BENCH_<area>.json in the current directory)")
		jobs    = fs.Int("jobs", 0, "override the campaign's jobs list with one worker count")
		quiet   = fs.Bool("q", false, "suppress progress lines")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file")
		stepped = fs.Bool("stepped", false, "build every machine on the pure per-cycle stepped engine (no event wheel); the deterministic section must not change — compare wall times to measure the wheel's win")
	)
	extra, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if len(extra) > 0 {
		lg.Printf("unexpected arguments %v", extra)
		return 2
	}
	// Campaigns declare their own fault plans and machines; the shared
	// flags contribute only their validation here.
	shared := cliutil.Flags{Jobs: *jobs}
	if err := shared.Validate(fs); err != nil {
		lg.Print(err)
		return 2
	}
	if *config == "" {
		lg.Print("run needs -config (e.g. bench/campaigns/smoke.json)")
		return 2
	}
	prof, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		lg.Print(err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			lg.Print(err)
		}
	}()

	c, err := bench.Load(*config)
	if err != nil {
		lg.Print(err)
		return 2
	}
	// The artifact's directory exists before the campaign runs, or the
	// run fails here rather than after simulating every point.
	path := *out
	if path == "" {
		path = "BENCH_" + c.Area + ".json"
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		lg.Print(err)
		return 2
	}
	opt := bench.RunOptions{Jobs: *jobs, Now: time.Now, Progress: stderr, Stepped: *stepped}
	if *quiet {
		opt.Progress = nil
	}
	art, err := bench.Run(c, opt)
	if err != nil {
		lg.Print(err)
		return 1
	}
	if err := art.Write(path); err != nil {
		lg.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d points × jobs %v\n", path, art.Header.Points, art.Header.Jobs)
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarbench: ", 0)
	fs := flag.NewFlagSet("cedarbench diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "cedarbench: usage: cedarbench diff old.json new.json") }
	paths, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if len(paths) != 2 {
		fs.Usage()
		return 2
	}
	old, err := bench.ReadArtifact(paths[0])
	if err != nil {
		lg.Print(err)
		return 2
	}
	cur, err := bench.ReadArtifact(paths[1])
	if err != nil {
		lg.Print(err)
		return 2
	}
	report, err := bench.Diff(old, cur)
	if err != nil {
		lg.Print(err)
		return 2
	}
	fmt.Fprint(stdout, report.Format())
	if report.HasRegressions() {
		return 1
	}
	return 0
}

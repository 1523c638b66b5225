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
//	cedarbench diff old.json new.json -threshold 5% -alloc-threshold 30%
//
// `run` executes every (machine × workload × fault) point of the
// campaign through the fleet pool once per declared jobs value and
// writes a BENCH_<area>.json artifact; the run fails if the
// deterministic section is not byte-identical across passes. `diff`
// compares two artifacts and exits 1 when simcycles or allocations
// regressed past the thresholds — CI's regression gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	case "diff", "-diff":
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
		config   = fs.String("config", "", "campaign config JSON (required; the standing ones are under bench/campaigns)")
		out      = fs.String("out", "", "artifact path (default BENCH_<area>.json in the current directory)")
		jobs     = fs.Int("jobs", 0, "override the campaign's jobs list with one worker count")
		clusters = fs.Int("clusters", 0, "simulated machine width for default-machine points (0 = as built; 16/64 = scale-up presets)")
		quiet    = fs.Bool("q", false, "suppress progress lines")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
		stepped  = fs.Bool("stepped", false, "build every machine on the pure per-cycle stepped engine (no event wheel); the deterministic section must not change — compare wall times to measure the wheel's win")
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
	shared := cliutil.Flags{Jobs: *jobs, Clusters: *clusters}
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
	if *clusters > 0 {
		// -clusters swaps the base machine: every entry that does not
		// name a scaled base of its own starts from this one, and applies
		// its overrides (clusters, modules, ...) on top as usual.
		c.Machines = append([]bench.MachineSpec(nil), c.Machines...)
		for i := range c.Machines {
			if c.Machines[i].Scaled == 0 {
				c.Machines[i].Scaled = *clusters
			}
		}
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
	var (
		thr      = fs.String("threshold", "5%", "simcycle regression threshold (\"5%\" or \"0.05\")")
		allocThr = fs.String("alloc-threshold", "30%", "malloc regression threshold")
	)
	// Flags may come before, between or after the two artifact paths.
	paths, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "cedarbench: usage: cedarbench diff old.json new.json [-threshold 5%] [-alloc-threshold 30%]")
		return 2
	}
	var opt bench.DiffOptions
	if opt.CycleThreshold, err = parseThreshold(*thr); err != nil {
		lg.Printf("-threshold: %v", err)
		return 2
	}
	if opt.AllocThreshold, err = parseThreshold(*allocThr); err != nil {
		lg.Printf("-alloc-threshold: %v", err)
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
	report, err := bench.Diff(old, cur, opt)
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

// parseThreshold accepts "5%" (percent) or "0.05" (fraction).
func parseThreshold(s string) (float64, error) {
	s = strings.TrimSpace(s)
	percent := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad threshold %q", s)
	}
	if percent {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("threshold %q is negative", s)
	}
	return v, nil
}

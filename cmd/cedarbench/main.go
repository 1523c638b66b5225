// Command cedarbench runs declarative performance campaigns.
//
// Usage:
//
//	cedarbench run -config c.json                       # -> BENCH_<area>.json
//	cedarbench run -config c.json -out artifacts/BENCH_area.json
//	cedarbench run -config c.json -cpuprofile cpu.pb.gz # profile the host time
//	cedarbench run -q -config bench/campaigns/smoke.json -out bench/BENCH_smoke.json
//
// `run` executes every (machine × workload × fault) point of the
// campaign through the fleet pool once per value of its jobs list and
// writes a BENCH_<area>.json artifact; the run fails if the
// deterministic section is not byte-identical across passes. A campaign
// names its own machines (a scale-up point is an entry with "scaled":
// 16), fault plans and jobs, and the artifact records nothing else, so
// it is the same bytes on any host. The committed campaigns' artifacts
// under bench/ are pinned whole by internal/bench's
// TestCampaignsMatchTheCommittedBaselines, which lists every point that
// moved; for a deliberate model change, re-take one with the last line
// above.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

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
		fmt.Fprintln(stderr, "cedarbench: usage: cedarbench run [flags]")
		return 2
	}
	if args[0] != "run" {
		fmt.Fprintf(stderr, "cedarbench: unknown mode %q (want run)\n", args[0])
		return 2
	}
	return runCampaign(args[1:], stdout, stderr)
}

func runCampaign(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "cedarbench: ", 0)
	fs := flag.NewFlagSet("cedarbench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config  = fs.String("config", "", "campaign config JSON (required; the standing ones are under bench/campaigns)")
		out     = fs.String("out", "", "artifact path (default BENCH_<area>.json in the current directory)")
		quiet   = fs.Bool("q", false, "suppress progress lines")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file")
	)
	extra, err := cliutil.Parse(fs, args)
	if err != nil {
		return 2
	}
	if len(extra) > 0 {
		lg.Printf("unexpected arguments %v", extra)
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
	var opt bench.RunOptions
	if !*quiet {
		opt.Progress = stderr
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

// Command cedarperf is the repo's performance benchmark: five workloads
// measured end to end, and a traced run that says which layer the time
// went to. BENCHMARK.json at the repo root is its contract; README.md in
// this directory is the manual.
//
//	cedarperf run                          every workload, each in its own process
//	cedarperf run -trace 1                 the traced run: per-layer metrics + trace files
//	cedarperf run -workload dense -seed 7  one workload; last stdout line is the result JSON
//	cedarperf compare A.json B.json        verdict per workload × metric against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: cedarperf run|compare [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:], stdout, stderr)
	case "compare":
		return compareCmd(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "cedarperf: unknown mode %q (want run or compare)\n", args[0])
	return 2
}

// header states the configuration every number was measured on.
type header struct {
	Tool       string  `json:"tool"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      string  `json:"scale"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Claim      *string `json:"claim"` // this benchmark claims no gain
}

// report is artifacts/perf/result.json.
type report struct {
	Header    header    `json:"header"`
	Workloads []*result `json:"workloads"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runCmd(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cedarperf run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process and end stdout with its result JSON (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed: problem-size jitter, serve key set and Zipf order, rig traffic")
	seconds := fs.Int("seconds", 12, "how long each workload's timed section measures")
	trace := fs.String("trace", "0", "1 for the traced run (per-layer metrics, trace files); 0 for the end-to-end run")
	scale := fs.String("scale", "full", "full, or tiny for the smoke test")
	out := fs.String("out", filepath.Join("artifacts", "perf"), "directory for result.json, trace files and scratch space")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || fs.NArg() > 0 || *seconds < 1 || (*scale != "full" && *scale != "tiny") {
		fmt.Fprintln(stderr, "cedarperf run: bad flags; -trace takes 0 or 1, -seconds ≥ 1, -scale full|tiny, no positional arguments")
		return 2
	}
	// Load comes from 2 workers/clients and the numbers are only
	// comparable on a host that can run them side by side.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "cedarperf: this host has %d CPU; the benchmark drives 2 workers and refuses to measure on fewer than 2\n", runtime.NumCPU())
		return 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: traced, tiny: *scale == "tiny", dir: *out}
	defs := endToEnd
	if traced {
		defs = perLayer
	}

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "cedarperf: unknown workload %q\n", *workload)
			return 2
		}
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "cedarperf: %s: %v\n", *workload, err)
			return 1
		}
		res.print(stdout, defs)
		line, err := res.contractLine()
		if err != nil {
			fmt.Fprintf(stderr, "cedarperf: %v\n", err)
			return 1
		}
		// The full result (sample counts, per-point detail) goes to the
		// parent on stderr's side channel: a file next to the traces.
		if err := writeJSON(filepath.Join(cfg.dir, "result-"+*workload+".json"), res); err != nil {
			fmt.Fprintf(stderr, "cedarperf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep := report{Header: header{Tool: "cedarperf", Seed: *seed, Seconds: *seconds, Trace: traced, Scale: *scale,
		Commit: commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: clients}}
	fmt.Fprintf(stdout, "# cedarperf seed=%d seconds=%d trace=%t commit=%s %s num_cpu=%d gomaxprocs=%d\n",
		*seed, *seconds, traced, rep.Header.Commit, rep.Header.Go, rep.Header.NumCPU, rep.Header.GoMaxProcs)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cedarperf: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		// One child per workload, so peak_rss_mb is the workload's own.
		child := exec.Command(self, "run", "-workload", w.name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", *trace, "-scale", *scale, "-out", *out)
		var buf bytes.Buffer
		child.Stdout, child.Stderr = &buf, stderr
		runErr := child.Run()
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		// Echo the child's metric lines, not its contract line.
		stdout.Write(append(bytes.Join(lines[:max(len(lines)-1, 0)], []byte("\n")), '\n'))
		var res result
		if err := readJSON(filepath.Join(*out, "result-"+w.name+".json"), &res); err != nil || runErr != nil {
			fmt.Fprintf(stderr, "cedarperf: workload %s failed: run: %v, result: %v\n", w.name, runErr, err)
			code = 1
			continue
		}
		rep.Workloads = append(rep.Workloads, &res)
	}
	if err := writeJSON(filepath.Join(*out, "result.json"), rep); err != nil {
		fmt.Fprintf(stderr, "cedarperf: %v\n", err)
		return 1
	}
	return code
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

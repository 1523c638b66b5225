package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// advisoryBound is the bound the metrics without one in BENCHMARK.json
// — the whole-run timings and the per-layer metrics — are judged
// against. Their verdicts are printed in parentheses and never fail the
// comparison: on this host a timing needs paired runs to mean anything.
const advisoryBound = 0.10

// worseBy is how much worse b reads than a, as a share of a: positive
// when b is on the wrong side of a for the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if better == "higher" {
		return -d
	}
	return d
}

// judge gives the verdict for one workload × metric from the runs of
// each side. The rules are the choosing-metrics guide's: a regression is
// a median worse by more than the bound; where the sides' own spread is
// wider than the bound and their runs overlap nothing can be said; a
// gain needs the new side to win nine pairs in ten and the medians to
// differ by more than the base side's quartile distance.
func judge(base, next []float64, better string, bound float64) string {
	delta := worseBy(median(base), median(next), better)
	spread := max(iqrShare(base), iqrShare(next))
	var wins, losses, pairs int
	for _, b := range base {
		for _, n := range next {
			pairs++
			switch w := worseBy(b, n, better); {
			case w < 0:
				wins++
			case w > 0:
				losses++
			}
		}
	}
	overlap := wins != pairs && losses != pairs
	switch {
	case delta > bound && spread > bound && overlap:
		return "unresolved"
	case delta > bound:
		return "worse"
	case spread > bound && overlap:
		return "unresolved"
	case 10*wins >= 9*pairs && -delta > iqrShare(base):
		return "better"
	}
	return "unchanged"
}

// side is one side of a comparison: per workload, per metric, the value
// from each run; plus failed and attempted operations per workload.
type side struct {
	values            map[string]map[string][]float64
	failed, attempted map[string]int
}

func loadSide(paths []string) (side, error) {
	s := side{values: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
	for _, path := range paths {
		var rep report
		if err := readJSON(path, &rep); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rep.Workloads {
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for _, set := range []map[string]metric{r.Metrics, r.Detail} {
				for name, m := range set {
					s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
				}
			}
			s.failed[r.Workload] += r.Failed
			s.attempted[r.Workload] += r.Attempted
		}
	}
	return s, nil
}

func (s side) failedShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

func compareCmd(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cedarperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark contract holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// compare BASE... -- NEW...; with exactly two files the separator
	// may be left out.
	var basePaths, nextPaths []string
	into := &basePaths
	for _, a := range fs.Args() {
		if a == "--" {
			into = &nextPaths
			continue
		}
		*into = append(*into, a)
	}
	if len(nextPaths) == 0 && len(basePaths) == 2 {
		basePaths, nextPaths = basePaths[:1], basePaths[1:]
	}
	if len(basePaths) == 0 || len(nextPaths) == 0 {
		fmt.Fprintln(stderr, "usage: cedarperf compare [-bench BENCHMARK.json] BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]")
		return 2
	}
	var bench benchmarkFile
	if err := readJSON(*benchPath, &bench); err != nil {
		fmt.Fprintf(stderr, "cedarperf compare: %v\n", err)
		return 2
	}
	base, err := loadSide(basePaths)
	if err == nil {
		var next side
		if next, err = loadSide(nextPaths); err == nil {
			return printComparison(stdout, bench, base, next)
		}
	}
	fmt.Fprintf(stderr, "cedarperf compare: %v\n", err)
	return 2
}

func printComparison(stdout *os.File, bench benchmarkFile, base, next side) int {
	code := 0
	fmt.Fprintf(stdout, "%-8s %-36s %14s %25s %14s %25s %8s  %s\n",
		"workload", "metric", "base median", "[q1, q3]", "new median", "[q1, q3]", "change", "verdict")
	row := func(workload, name, better string, bound float64, gated bool) {
		b, n := base.values[workload][name], next.values[workload][name]
		if len(b) == 0 || len(n) == 0 {
			return
		}
		verdict := judge(b, n, better, bound)
		if !gated {
			verdict = "(" + verdict + ")"
		} else if verdict == "worse" {
			code = 1
		}
		fmt.Fprintf(stdout, "%-8s %-36s %14.4f [%11.4f,%11.4f] %14.4f [%11.4f,%11.4f] %+7.1f%%  %s\n",
			workload, name, median(b), quantile(b, 0.25), quantile(b, 0.75),
			median(n), quantile(n, 0.25), quantile(n, 0.75), 100*(median(n)-median(b))/median(b), verdict)
	}
	names := make([]string, 0, len(base.values))
	for w := range base.values {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range bench.EndToEnd {
			row(w, m.Name, m.Better, m.Bound, true)
		}
		for _, m := range bench.PerLayer {
			row(w, m.Name, m.Better, advisoryBound, false)
		}
		fb, fn := base.failedShare(w), next.failedShare(w)
		verdict := "unchanged"
		if fn > fb {
			verdict, code = "worse", 1
		}
		fmt.Fprintf(stdout, "%-8s %-36s %14.6f %25s %14.6f %25s %8s  %s\n", w, "failed_share", fb, "", fn, "", "", verdict)
	}
	return code
}

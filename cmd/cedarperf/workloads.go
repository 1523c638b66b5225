package main

import (
	"fmt"
	"math/rand"
)

// workloadInfo names a workload and says why it is in the benchmark;
// BENCHMARK.json carries the same names and reasons.
type workloadInfo struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workloadInfo{
	{"dense", "every component ticks almost every cycle, so CE/PFU/omega/gmem/cache tick cost is nearly all of it and the event wheel does nothing", runDense},
	{"sparse", "dependent-load probes where most cycles are jumped, so the wake heap, waker plumbing and core.New dominate and a per-tick optimisation should not move it", runSparse},
	{"sharded", "Cedar64/Cedar16 at shards 2: barrier, mailboxes and replay on top of the tick path; decides ROADMAP item 2's keep-or-delete rule", runSharded},
	{"suite", "Perfect proxies QCD and TRACK through fleet.Run at jobs 2: cfrt/ccbus/sync/xylem paths and the only workload where inter-run parallelism carries the result", runSuiteWorkload},
	{"serve", "closed loop of 2 keep-alive HTTP clients over cedarserve and its store: the only workload where decode/key/lookup/write and the store's per-Put fsyncs matter and the engine barely does", runServe},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// shuffled returns the ops in the seed's order. Problem sizes are not
// seeded: a rate is only comparable at a stated input size, mallocs and
// wall per point step with size (alignment, prefetch-block and chunk
// boundaries), and the benchmark has to repeat across seeds to within a
// third of each bound. What the seed moves on the engine workloads is
// the order the points meet the heap and the collector in.
func shuffled(seed int64, ops []op) []op {
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// scaled shrinks a size for -scale tiny (the smoke test), never below lo.
func (cfg runConfig) scaled(n, lo int) int {
	if cfg.tiny {
		return max(n/8, lo)
	}
	return n
}

func runDense(cfg runConfig) (*result, error) {
	return runEngine(cfg, func() *engineWorkload {
		rank := func(name, machine, variant string, n int, faults bool) pointSpec {
			return pointSpec{Name: name, Machine: machine, Kind: "rank", Variant: variant,
				N: cfg.scaled(n, 8), Faults: faults}
		}
		points := []pointSpec{
			rank("rank48-pref", "cedar", "pref", 48, false),
			rank("rank48-nopref", "cedar", "nopref", 48, false),
			rank("rank48-cache", "cedar", "cache", 48, false),
			{Name: "vl2k", Machine: "cedar", Kind: "vectorload", N: cfg.scaled(2048, 64), Sweeps: 1},
			{Name: "cg128", Machine: "cedar", Kind: "cg", N: cfg.scaled(128, 64), Iters: 2},
			{Name: "trimat64", Machine: "cedar", Kind: "trimat", N: 64},
			{Name: "banded256-bw11", Machine: "cedar", Kind: "banded", N: cfg.scaled(256, 64), BW: 11},
			{Name: "membw32", Machine: "cedar", Kind: "membw", N: cfg.scaled(2048, 128), CEs: 32, Stride: 1},
			rank("rank32-pref-xbar", "cedar-xbar", "pref", 32, false),
			rank("rank32-pref-faults", "cedar", "pref", 32, true),
		}
		w := &engineWorkload{name: "dense", shards: 1}
		for _, p := range points {
			w.ops = append(w.ops, pointOp(p))
		}
		w.ops = shuffled(cfg.seed, w.ops)
		return w
	})
}

func runSparse(cfg runConfig) (*result, error) {
	return runEngine(cfg, func() *engineWorkload {
		w := &engineWorkload{name: "sparse", shards: 1}
		// Loads per probe are chosen so the three gaps cost about equal
		// wall: a jumped cycle is nearly free, so cost follows the load
		// count, not the simulated length.
		for _, gap := range []int{0, 100, 1000} {
			for _, n := range []int{4000, 8000, 16000} {
				w.ops = append(w.ops, pointOp(pointSpec{Name: fmt.Sprintf("lat-gap%d-n%d", gap, n),
					Machine: "cedar", Kind: "latency", N: cfg.scaled(n, 50), Gap: gap}))
			}
		}
		w.ops = append(w.ops, pointOp(pointSpec{Name: "membw1", Machine: "cedar", Kind: "membw",
			N: cfg.scaled(16384, 256), CEs: 1, Stride: 1}))
		w.ops = shuffled(cfg.seed, w.ops)
		return w
	})
}

func runSharded(cfg runConfig) (*result, error) {
	return runEngine(cfg, func() *engineWorkload {
		big := "cedar64"
		if cfg.tiny {
			big = "cedar16" // building and ticking 512 CEs is most of a second
		}
		points := []pointSpec{
			{Name: "cedar64-vl128", Machine: big, Kind: "vectorload", N: cfg.scaled(128, 32), Sweeps: 1},
			{Name: "cedar16-vl512", Machine: "cedar16", Kind: "vectorload", N: cfg.scaled(512, 32), Sweeps: 1},
			{Name: "cedar16-rank32-pref", Machine: "cedar16", Kind: "rank", Variant: "pref", N: cfg.scaled(32, 8)},
		}
		w := &engineWorkload{name: "sharded", shards: 2}
		for _, p := range points {
			w.ops = append(w.ops, pointOp(p))
		}
		w.ops = shuffled(cfg.seed, w.ops)
		return w
	})
}

// suiteSpecs is QCD and TRACK × every variant the paper's tables carry,
// at half the paper's slice length (twice its Reps), which keeps a
// jobs-2 pass under a second. The seed changes nothing here: dispatch
// order decides the jobs-2 makespan, so it is part of what is measured.
func suiteSpecs(cfg runConfig) []suiteSpec {
	var specs []suiteSpec
	for _, code := range []string{"QCD", "TRACK"} {
		reps := 2 * paperReps(code)
		if cfg.tiny {
			reps *= 16
		}
		variant := func(name, v string, noSync, noPref bool) {
			specs = append(specs, suiteSpec{Name: code + "-" + name, Code: code, Variant: v, NoSync: noSync, NoPref: noPref, Reps: reps})
		}
		variant("serial", "serial", false, false)
		variant("kap", "kap", false, false)
		variant("auto", "auto", false, false)
		variant("auto-nosync", "auto", true, false)
		variant("auto-nosync-nopref", "auto", true, true)
		if code == "QCD" { // TRACK has no Table 4 hand version
			variant("hand", "hand", false, false)
		}
	}
	return specs
}

func runSuiteWorkload(cfg runConfig) (*result, error) {
	return runEngine(cfg, func() *engineWorkload {
		w := &engineWorkload{name: "suite", shards: 1, jobs: 2}
		for _, s := range suiteSpecs(cfg) {
			w.ops = append(w.ops, suiteOp(s))
		}
		return w
	})
}

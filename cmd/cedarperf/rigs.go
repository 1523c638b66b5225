package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// rigDrives is how many timed drives each rig makes after one warm-up
// drive; the metric is the median. The smoke test makes one.
func (cfg runConfig) rigDrives() int {
	if cfg.tiny {
		return 1
	}
	return 5
}

// rigCycles is the simulated length of one drive of a ns-per-cycle rig
// (the memory rigs, several times dearer per cycle, run a quarter).
func (cfg runConfig) rigCycles() int64 {
	if cfg.tiny {
		return 2000
	}
	return 40000
}

// timeMedian times f reps times and returns the median in unit.
func timeMedian(reps int, unit time.Duration, f func() error) (float64, error) {
	var took []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start))
	}
	return median(in(unit, took)), nil
}

// runRigs measures every workload-independent per-layer metric: each
// layer driven alone through its public functions. withServe adds the
// serve rig — every serve phase at a tenth the size — which the serve
// workload's own traced run makes redundant.
func runRigs(cfg runConfig, v *verdict, withServe bool) (map[string]metric, error) {
	ms := newMetricSet(perLayer)
	for _, rig := range layerRigs(cfg.seed, cfg.rigCycles()) {
		drive := rig.Prepare()
		drive() // warm-up
		var perUnit []float64
		var last rigCount
		for i := 0; i < cfg.rigDrives(); i++ {
			runtime.GC()
			start := time.Now()
			last = drive()
			perUnit = append(perUnit, float64(time.Since(start).Nanoseconds())/float64(last.Units))
		}
		ms.set(rig.Metric, median(perUnit), len(perUnit))
		if rig.Ratio != "" {
			ms.set(rig.Ratio, share(last.Num, last.Den), int(last.Den))
		}
	}
	for _, preset := range []string{"cedar", "cedar64"} {
		us, err := timeMedian(cfg.rigDrives(), time.Microsecond, func() error { return buildMachine(preset) })
		if err != nil {
			return nil, err
		}
		ms.set("core.build_us."+preset, us, cfg.rigDrives())
	}
	if err := shardRig(cfg, ms, v); err != nil {
		return nil, err
	}
	if err := fleetRigs(cfg, ms); err != nil {
		return nil, err
	}
	if err := storeRigs(cfg, ms); err != nil {
		return nil, err
	}
	if withServe {
		s := &serveRun{cfg: cfg, plan: cfg.servePlan()}
		defer s.close()
		if err := s.setup(); err != nil {
			return nil, err
		}
		if err := s.phases(); err != nil {
			return nil, err
		}
		s.layerMetrics(ms)
		if err := s.probes(ms); err != nil {
			return nil, err
		}
		v.add(s.v)
	}
	return ms.m, nil
}

// shardRig runs the sharded workload's points under shards 2 and shards
// 1 and reports the ratio of their medians: above 1, sharding pays.
func shardRig(cfg runConfig, ms *metricSet, v *verdict) error {
	p := pointSpec{Name: "cedar16-vl256", Machine: "cedar16", Kind: "vectorload", N: cfg.scaled(256, 32), Sweeps: 1}
	var ref pointResult
	at := func(shards int) (float64, error) {
		return timeMedian(cfg.rigDrives(), time.Millisecond, func() error {
			var err error
			var r pointResult
			withShards(shards, func() { r, err = runPoint(p) })
			if shards == 1 {
				ref = r
			} else if err == nil && string(r.Bytes) != string(ref.Bytes) {
				v.op("shard rig: outcome bytes at shards 2 differ from shards 1")
			}
			return err
		})
	}
	seq, err := at(1)
	if err != nil {
		return err
	}
	par, err := at(2)
	if err != nil {
		return err
	}
	ms.set("sim.shard_speedup", seq/par, cfg.rigDrives())
	return nil
}

// fleetRigs times the fleet layer's small costs and the suite's
// inter-run speedup.
func fleetRigs(cfg runConfig, ms *metricSet) error {
	p := pointSpec{Name: "lat", Machine: "cedar", Kind: "latency", N: 64, Gap: 3}
	const keys = 1000
	drives := cfg.rigDrives()
	us, err := timeMedian(drives, time.Microsecond, func() error {
		for i := 0; i < keys; i++ {
			fleetKey(p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("fleet.key_us", us/keys, drives)

	const jobs = 1000
	us, err = timeMedian(drives, time.Microsecond, func() error { return fleetDispatchNoop(clients, jobs) })
	if err != nil {
		return err
	}
	ms.set("fleet.dispatch_us_per_job", us/jobs, drives)

	hit, err := fleetHitter(p)
	if err != nil {
		return err
	}
	const hits = 1000
	us, err = timeMedian(drives, time.Microsecond, func() error {
		for i := 0; i < hits; i++ {
			if err := hit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("fleet.cache_hit_us", us/hits, drives)

	// Suite passes at jobs 1, then at jobs 2.
	suite := &engineWorkload{name: "suite", shards: 1}
	rigCfg := cfg
	rigCfg.tiny = true // a sixteenth of the slice: the ratio, not the size, is the metric
	for _, s := range suiteSpecs(rigCfg) {
		suite.ops = append(suite.ops, suiteOp(s))
	}
	at := func(jobs int) (float64, error) {
		suite.jobs = jobs
		return timeMedian(drives, time.Millisecond, func() error { _, err := suite.pass(nil); return err })
	}
	seq, err := at(1)
	if err != nil {
		return err
	}
	par, err := at(2)
	if err != nil {
		return err
	}
	ms.set("fleet.jobs2_speedup", seq/par, drives)
	return nil
}

// storeRigs fills a store to 1k entries, timing Puts early (small
// index) and late (the index rewrite is O(entries)), then Gets and a
// reopen.
func storeRigs(cfg runConfig, ms *metricSet) error {
	dir, err := cfg.scratch("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries, window := 1000, 100
	if cfg.tiny {
		entries, window = 40, 10
	}
	var early, late []time.Duration
	if _, err := fillStore(dir, entries, 1400, func(i int, put func()) {
		start := time.Now()
		put()
		switch d := time.Since(start); {
		case i >= window && i < 2*window:
			early = append(early, d)
		case i >= entries-window:
			late = append(late, d)
		}
	}); err != nil {
		return err
	}
	ms.set("store.put_us_p50", median(in(time.Microsecond, early)), len(early))
	ms.set("store.put_us_p50_at1k", median(in(time.Microsecond, late)), len(late))

	var st storeRig
	openMS, err := timeMedian(3, time.Millisecond, func() error {
		var err error
		st, err = openStore(dir, 0)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("store.open_ms_at1k", openMS, 3)
	var gets []time.Duration
	for i := 0; i < entries; i++ {
		start := time.Now()
		ok := st.get(fmt.Sprintf("template:%08d", i))
		gets = append(gets, time.Since(start))
		if !ok {
			return fmt.Errorf("store rig: key %d missing after reopen", i)
		}
	}
	ms.set("store.get_us_p50", median(in(time.Microsecond, gets)), len(gets))
	if e := st.errors(); e != 0 {
		return fmt.Errorf("store rig: %d IO errors", e)
	}
	return nil
}

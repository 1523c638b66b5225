package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// op is one operation of an engine pass: an experiment point or a
// Perfect variant, with the untraced call and its traced twin.
type op struct {
	name   string
	run    func() (pointResult, error)
	traced func(span func(name string, f func())) (pointResult, error)
	// healthy ops must end "ok"; a faulted op may also end "degraded".
	healthy bool
	// flops, when non-zero, is the kernel's own flop formula.
	flops int64
}

func pointOp(p pointSpec) op {
	return op{name: p.Name, healthy: !p.Faults, flops: p.nominalFlops(),
		run:    func() (pointResult, error) { return runPoint(p) },
		traced: func(span func(string, func())) (pointResult, error) { return tracedPoint(p, span) }}
}

func suiteOp(s suiteSpec) op {
	return op{name: s.Name, healthy: true,
		run:    func() (pointResult, error) { return runSuite(s) },
		traced: func(span func(string, func())) (pointResult, error) { return tracedSuite(s, span) }}
}

// engineWorkload is a fixed list of operations executed pass after pass.
type engineWorkload struct {
	name   string
	ops    []op
	shards int // engine shard bound the passes run under
	jobs   int // 0: one goroutine, direct calls; else fleet.Run at this worker count
}

// passOut is what one pass measured and produced.
type passOut struct {
	wall    time.Duration
	opWall  []time.Duration
	res     []pointResult
	mallocs uint64
	bytes   uint64
	traced  bool
}

// pass runs every op once. The collector runs between passes, outside
// the timed span, so a pass never inherits its predecessor's garbage.
func (w *engineWorkload) pass(tr *tracer) (passOut, error) {
	out := passOut{opWall: make([]time.Duration, len(w.ops)), res: make([]pointResult, len(w.ops)), traced: tr != nil}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passSpan := tr.begin("pass", w.name, 0, 0)
	start := time.Now()
	var err error
	withShards(w.shards, func() { err = w.execute(tr, passSpan, &out) })
	out.wall = time.Since(start)
	tr.end(passSpan)
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return out, err
}

func (w *engineWorkload) execute(tr *tracer, passSpan int, out *passOut) error {
	var lanes laneSet
	one := func(i int) (pointResult, error) {
		o := w.ops[i]
		lane := lanes.take()
		defer lanes.give(lane)
		start := time.Now()
		var r pointResult
		var err error
		if tr == nil {
			r, err = o.run()
		} else {
			id := tr.begin("point", o.name, passSpan, lane)
			r, err = o.traced(tr.under(id, o.name, lane))
			tr.end(id)
		}
		out.opWall[i] = time.Since(start)
		if err != nil {
			return r, fmt.Errorf("%s: %w", o.name, err)
		}
		return r, nil
	}
	if w.jobs == 0 {
		for i := range w.ops {
			r, err := one(i)
			if err != nil {
				return err
			}
			out.res[i] = r
		}
		return nil
	}
	keys := make([]string, len(w.ops))
	fns := make([]func() (pointResult, error), len(w.ops))
	for i, o := range w.ops {
		keys[i] = o.name
		fns[i] = func() (pointResult, error) { return one(i) }
	}
	res, misses, err := dispatch(w.jobs, keys, fns)
	if err != nil {
		return err
	}
	// A private cache per pass means every op is a first presentation;
	// anything less and the pass measured cache hits, not simulations.
	if misses != int64(len(w.ops)) {
		return fmt.Errorf("%s: fleet cache reported %d misses for %d ops; the pass did not simulate every op", w.name, misses, len(w.ops))
	}
	copy(out.res, res)
	return nil
}

// laneSet hands out the smallest free lane number, so concurrent ops
// land on separate trace threads.
type laneSet struct {
	mu   sync.Mutex
	busy []bool
}

func (l *laneSet) take() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.busy {
		if !b {
			l.busy[i] = true
			return i
		}
	}
	l.busy = append(l.busy, true)
	return len(l.busy) - 1
}

func (l *laneSet) give(i int) {
	l.mu.Lock()
	l.busy[i] = false
	l.mu.Unlock()
}

// verdict counts operations attempted and failed and keeps the first
// few reasons.
type verdict struct {
	attempted, failed int
	reasons           []string
}

// add folds another verdict's counts and reasons into v.
func (v *verdict) add(o verdict) {
	v.attempted, v.failed = v.attempted+o.attempted, v.failed+o.failed
	v.reasons = append(v.reasons, o.reasons...)
}

func (v *verdict) op(reasons ...string) {
	v.attempted++
	if len(reasons) == 0 {
		return
	}
	v.failed++
	if len(v.reasons) < 8 {
		v.reasons = append(v.reasons, reasons[0])
	}
}

// verify checks every op of every pass: outcome bytes equal to the
// first pass (and to ref, the same ops under the sequential schedule,
// when given), "ok" on healthy points, flops equal to the kernel's own
// formula, and — on traced passes, which have no outcome bytes — cycles
// equal to the RunSpec path's.
func (w *engineWorkload) verify(passes []passOut, ref []pointResult, v *verdict) {
	first := passes[0].res
	for pi, p := range passes {
		for i, o := range w.ops {
			r := p.res[i]
			var why []string
			switch {
			case p.traced && r.Cycles != first[i].Cycles:
				why = append(why, fmt.Sprintf("%s pass %d: traced path ran %d cycles, RunSpec path %d", o.name, pi, r.Cycles, first[i].Cycles))
			case !p.traced && !bytes.Equal(r.Bytes, first[i].Bytes):
				why = append(why, fmt.Sprintf("%s pass %d: outcome bytes differ from pass 0", o.name, pi))
			case !p.traced && ref != nil && !bytes.Equal(r.Bytes, ref[i].Bytes):
				why = append(why, fmt.Sprintf("%s pass %d: outcome bytes at shards %d differ from shards 1", o.name, pi, w.shards))
			case o.healthy && r.Status != "ok":
				why = append(why, fmt.Sprintf("%s pass %d: status %q on a healthy point", o.name, pi, r.Status))
			case o.flops != 0 && r.Flops != o.flops:
				why = append(why, fmt.Sprintf("%s pass %d: %d flops, kernel formula says %d", o.name, pi, r.Flops, o.flops))
			}
			v.op(why...)
		}
	}
}

// timedPasses runs untraced passes until the time budget is spent, and
// at least minPasses.
func (w *engineWorkload) timedPasses(budget time.Duration, minPasses int) ([]passOut, error) {
	var passes []passOut
	deadline := time.Now().Add(budget)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func passWalls(passes []passOut) []time.Duration {
	out := make([]time.Duration, len(passes))
	for i, p := range passes {
		out[i] = p.wall
	}
	return out
}

func sumCycles(res []pointResult) int64 {
	var c int64
	for _, r := range res {
		c += r.Cycles
	}
	return c
}

// runEngine is the whole life of an engine workload in one process:
// set-up (several times), timed passes, verification, metrics.
func runEngine(cfg runConfig, build func() *engineWorkload) (*result, error) {
	var w *engineWorkload
	setup, err := timeSetup(cfg.setupReps(), func() error {
		w = build()
		_, err := w.pass(nil) // the untimed warm-up pass
		return err
	})
	if err != nil {
		return nil, err
	}
	budget, minPasses := cfg.budget(), 3
	if cfg.trace {
		budget /= 3
	}
	passes, err := w.timedPasses(budget, minPasses)
	if err != nil {
		return nil, err
	}
	if cfg.plantOutcome {
		passes[1].res[0].Bytes = append([]byte("planted"), passes[1].res[0].Bytes...)
	}
	res := newResult(cfg)
	var ref []pointResult
	if w.shards > 1 {
		seq := *w
		seq.shards = 1
		p, err := seq.pass(nil)
		if err != nil {
			return nil, err
		}
		ref = p.res
	}
	var v verdict
	walls := in(time.Second, passWalls(passes))
	cycles := sumCycles(passes[0].res)

	var opWalls []time.Duration
	for _, p := range passes {
		opWalls = append(opWalls, p.opWall...)
	}
	rate := float64(cycles) / 1000 / median(walls)
	op := median(in(time.Millisecond, opWalls))

	if !cfg.trace {
		w.verify(passes, ref, &v)
		ms := newMetricSet(endToEnd)
		var mallocs, kb []float64
		for _, p := range passes {
			mallocs = append(mallocs, float64(p.mallocs)/float64(len(w.ops)))
			kb = append(kb, float64(p.bytes)/1024/float64(len(w.ops)))
		}
		ms.set("setup_s", setup, cfg.setupReps())
		ms.set("mallocs_per_op", median(mallocs), len(mallocs))
		ms.set("alloc_kb_per_op", median(kb), len(kb))
		res.Detail = runTimings(rate, len(passes), op, len(opWalls))
		res.finish(ms, endToEnd, v)
		return res, nil
	}

	tr := newTracer()
	var traced []passOut
	for i := 0; i < 3; i++ {
		p, err := w.pass(tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, p)
	}
	w.verify(append(passes, traced...), ref, &v)
	if err := tr.writeChrome(cfg.tracePath()); err != nil {
		return nil, err
	}
	ms := newMetricSet(perLayer)
	var skipped, engine int64
	for _, r := range traced[0].res {
		skipped += r.Skipped
		engine += r.EngineCycles
	}
	ms.set("sim.skipped_share", share(skipped, engine), len(w.ops))
	ms.set("sim.simcycles", float64(cycles), len(w.ops))
	setBusyShares(ms, traced[0].res)
	setSpanShares(ms, tr)
	ms.set("noise.pass_iqr_share", iqrShare(walls), len(walls))
	ms.set("trace.overhead_share", median(in(time.Second, passWalls(traced)))/median(walls)-1, len(traced))
	ms.merge(runTimings(rate, len(passes), op, len(opWalls))) // RSS read before the rigs raise it
	for i, o := range w.ops {
		var ws []time.Duration
		for _, p := range passes {
			ws = append(ws, p.opWall[i])
		}
		res.detail("point_ms."+o.name, median(in(time.Millisecond, ws)), "ms", len(ws))
	}
	rigs, err := runRigs(cfg, &v, true)
	if err != nil {
		return nil, err
	}
	ms.merge(rigs)
	res.finish(ms, perLayer, v)
	return res, nil
}

// setBusyShares reports, per component class, busy cycles over elapsed
// cycles summed across the ops — simulated time, exact.
func setBusyShares(ms *metricSet, res []pointResult) {
	busy, elapsed := map[string]int64{}, map[string]int64{}
	for _, r := range res {
		for _, b := range r.Busy {
			busy[b.Class] += b.Busy
			elapsed[b.Class] += b.Elapsed
		}
	}
	for _, class := range []string{"cache", "ccbus", "ce", "gmem", "network"} {
		ms.set("attr.busy_share."+class, share(busy[class], elapsed[class]), len(res))
	}
}

// setSpanShares folds span self times into the four layer classes, as
// shares of all recorded time.
func setSpanShares(ms *metricSet, tr *tracer) {
	self := tr.selfTimes()
	class := map[string]string{
		"core.New": "build", "scope.snapshot": "snapshot", "verify": "snapshot",
		"pass": "harness", "point": "harness", "phase": "harness", "request": "harness",
	}
	sum := map[string]time.Duration{}
	var total time.Duration
	for name, d := range self {
		c, ok := class[name]
		if !ok {
			c = "run" // kernels.*, perfect.Run, http.roundtrip
		}
		sum[c] += d
		total += d
	}
	for _, c := range []string{"build", "run", "snapshot", "harness"} {
		ms.set("span."+c+"_share", share(int64(sum[c]), int64(total)), len(tr.spans))
	}
}

// Package fleet is the deterministic parallel experiment orchestrator.
//
// The simulator itself is strictly single-goroutine: the engine ticks
// components in registration order and that order is part of the model.
// What fleet parallelizes is the level above — independent experiment
// points (one whole machine simulation each: a table row, an ablation
// configuration, a Perfect-code variant, a PPT sweep point). Jobs are
// dispatched to a bounded worker pool and results are reassembled in
// submission order, so every report, JSON and trace artifact is
// byte-identical to a sequential run. Per-job scope hubs are forked from
// the caller's hub and adopted back in submission order (scope.Hub.Fork /
// Adopt), which keeps -trace and -metrics output stable under any worker
// count.
//
// A caller that owns a content-addressed run cache (NewCache, keyed by a
// content address over everything that determines the result) passes it
// in Config.Cache: repeated keys then simulate once for the life of that
// cache. The cache is a pure in-memory single-flight memo; the daemon's
// response cache, keyed by the sha256 of the served point's JSON, is the
// one in this module, and the daemon reads and writes its own disk tier
// inside the job it hands the cache. There is no process-wide cache:
// without one in the Config every job runs (EXPERIMENTS.md, "The
// process-wide run cache — measured traffic"). Caching applies only to
// unobserved jobs: a cache hit skips the simulation, so it cannot replay
// instrumentation, and jobs running under a hub therefore always execute.
//
// A cache hands out the value it holds, not a copy: every presenter of a
// key — the one that computed it included — receives the same T, backing
// arrays and pointees shared. A value returned through a cache is
// therefore read-only to its receivers; one that needs to change it
// copies it first. (The one receiver in this module only reads: serve
// writes the cached bytes to the socket.)
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cedar/internal/scope"
)

// Job is one experiment point: an independent simulation (or any other
// self-contained computation) producing a T.
type Job[T any] struct {
	// Key, when non-empty, memoizes the job in Config.Cache. It must be
	// content-addressed over every input that affects the result (serve's
	// is the sha256 of the point's JSON). Jobs observed by a hub, and runs
	// without a cache, ignore it.
	Key string
	// Run executes the point. hub is the job's private scope view (nil
	// when the caller runs unobserved); the job must build all mutable
	// state — machine, runtime, hub sub-namespaces — from scratch so
	// nothing is shared with concurrently running jobs.
	Run func(hub *scope.Hub) (T, error)
}

// Config controls one Run call.
type Config struct {
	// Jobs is the worker count; 0 means GOMAXPROCS.
	Jobs int
	// Hub, when non-nil, observes every job through a forked child hub
	// that is adopted back in submission order.
	Hub *scope.Hub
	// Cache, when non-nil, memoizes keyed unobserved jobs for as long as
	// the caller keeps it. nil runs every job.
	Cache *Cache
}

// Run executes the jobs on a bounded worker pool and returns their
// results in submission order. With one worker (the default on a
// single-CPU host, or Config{Jobs: 1}) jobs run inline on the caller's
// goroutine against the caller's hub — exactly the pre-fleet sequential
// code path. With more workers each job runs against a forked hub;
// children are adopted back in submission order after all jobs finish, so
// artifacts are byte-identical to the sequential run. On failure the
// error of the earliest-submitted failing job is returned.
//
// Panics if a Job.Run panics: worker goroutines capture component panics
// and the first recorded one is rethrown on the caller's goroutine after
// the pool drains, so a panicking job poisons the Run call — where the
// caller can recover — and never kills the process from a goroutine
// nobody owns. The remaining jobs still run to completion before the
// rethrow.
func Run[T any](cfg Config, jobs []Job[T]) ([]T, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	cache := cfg.Cache
	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]T, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			out, err := runOne(j, cfg.Hub, cache)
			if err != nil {
				return nil, err
			}
			results[i] = out
		}
		return results, nil
	}

	hubs := make([]*scope.Hub, len(jobs))
	errs := make([]error, len(jobs))
	var rec recovered
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// The pool runs whole independent simulations: each engine stays
		// single-goroutine, and results merge in submission order.
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runGuarded(&rec, jobs[i], cfg.Hub, cache, hubs, results, errs, i)
			}
		}()
	}
	wg.Wait()
	if p := rec.first(); p != nil {
		// Resurface the original panic where the caller can see (and
		// recover from) it. Hubs are not adopted: a panicked pass has no
		// coherent artifact to merge.
		panic(p)
	}
	for _, h := range hubs {
		cfg.Hub.Adopt(h)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runGuarded executes one pool job with panic capture: a panicking
// Job.Run is recorded in rec for Run to rethrow on the caller's
// goroutine, and the worker moves on to the next job.
func runGuarded[T any](rec *recovered, j Job[T], parent *scope.Hub, cache *Cache,
	hubs []*scope.Hub, results []T, errs []error, i int) {
	defer rec.capture()
	hubs[i] = parent.Fork()
	results[i], errs[i] = runOne(j, hubs[i], cache)
}

// recovered holds the first panic captured by the worker pool, for the
// caller's goroutine to rethrow.
type recovered struct {
	mu sync.Mutex
	p  any
}

// capture is runGuarded's deferred recovery: it records the first
// worker panic for Run to rethrow.
func (r *recovered) capture() {
	if p := recover(); p != nil {
		r.mu.Lock()
		if r.p == nil {
			r.p = p
		}
		r.mu.Unlock()
	}
}

func (r *recovered) first() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p
}

// runOne executes one job, through the cache when it is unobserved and
// keyed.
func runOne[T any](j Job[T], hub *scope.Hub, cache *Cache) (T, error) {
	if j.Key != "" && hub == nil && cache != nil {
		v, err := cache.do(j.Key, func() (any, error) { return j.Run(nil) })
		if err != nil {
			var zero T
			return zero, err
		}
		if tv, ok := v.(T); ok {
			return tv, nil
		}
		// A key collision across result types is recomputed rather than
		// served a foreign value.
	}
	return j.Run(hub)
}

// Sharded execution: the intra-run parallel half of the engine.
//
// A sharded engine partitions the tick order into contiguous shards
// (one per cluster, in the Cedar machine) followed by a hub region
// (fabrics, global memory, samplers). Each cycle then runs as two
// deterministic phases:
//
//	phase A — every shard ticks its components, in index order within
//	          the shard, concurrently on a bounded worker set;
//	drain   — the drain hook applies effects shard components deferred
//	          (fabric submissions, scope spans) in fixed shard order;
//	hub     — hub components tick serially in index order, exactly as
//	          on an unsharded engine.
//
// Determinism does not depend on the schedule: shards own disjoint
// state, cross-shard traffic is deferred into per-shard ordered
// mailboxes replayed by the drain hook, and the drain order equals the
// order a sequential pass would have produced (shards are registered
// cluster-major and each mailbox preserves offer order). The worker
// count therefore changes wall time only — `-shards 1` and `-shards N`
// artifacts are byte-compared by the equivalence gates.
//
// The event wheel composes: each shard posts wakes into its own heap,
// and the global jump target is the min over all heaps, so a shard
// whose components all sleep never blocks the jump (see nextWake).
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RegisterShard appends components to the tick order inside the given
// shard and returns their handles. Shards must be registered in order
// (shard 0 first, each new shard index exactly one past the last) and
// before any hub component: once plain Register has been called on a
// sharded engine, the shard map is frozen. Panics if shards are
// registered out of order or after a hub component — both are wiring
// bugs in machine construction, never data-dependent. Within a cycle, a
// shard's components may only touch shard-owned state and
// deferred-submission APIs; the cedarvet shardsafe analyzer audits that
// contract.
func (e *Engine) RegisterShard(shard int, cs ...Component) []Handle {
	if len(e.components) > e.hubLo() {
		panic("sim: RegisterShard after hub components were registered")
	}
	switch {
	case shard == len(e.shardHi): // opening a new shard
		if e.shardOf == nil {
			e.shardOf = []int{}
		}
		e.shardHi = append(e.shardHi, len(e.components))
		e.wheels = append(e.wheels, wheel{due: -1})
	case shard == len(e.shardHi)-1: // extending the current shard
	default:
		panic(fmt.Sprintf("sim: RegisterShard(%d) out of order (have %d shards)", shard, len(e.shardHi)))
	}
	hs := e.Register(cs...)
	// Register marked them as hub components; claim them for the shard.
	for _, h := range hs {
		e.shardOf[h.idx] = shard
	}
	e.shardHi[shard] = len(e.components)
	return hs
}

// SetDrain installs the drain hook, called between phase A and the hub
// pass of every sharded cycle with the executing cycle number. The hook
// replays deferred cross-shard effects in fixed shard order; wakes it
// issues land on the earliest legal cycle (hub components can still
// tick this cycle, shard components next cycle).
func (e *Engine) SetDrain(f func(cycle int64)) { e.drain = f }

// NumShards reports how many shards have been registered (0 on an
// unsharded engine).
func (e *Engine) NumShards() int { return len(e.shardHi) }

// Workers reports the effective phase-A worker count: the process-wide
// bound captured at New, clamped to the shard count. 1 means phase A
// runs on the engine's own goroutine.
func (e *Engine) Workers() int {
	if w := min(e.maxWorkers, len(e.shardHi)); w > 1 {
		return w
	}
	return 1
}

// hubLo returns the index of the first hub component — one past the
// last sharded component, 0 on an unsharded engine.
func (e *Engine) hubLo() int {
	if n := len(e.shardHi); n > 0 {
		return e.shardHi[n-1]
	}
	return 0
}

// tickShard executes shard s's slice of the current cycle, with the same
// dueness and requery rules as the sequential pass (tickRange). It runs
// on whichever worker claimed the shard; all state it touches (component
// state, wake entries, the shard's wheel) is owned by the shard, so the
// claim schedule is invisible.
func (e *Engine) tickShard(s int, c int64) {
	lo := 0
	if s > 0 {
		lo = e.shardHi[s-1]
	}
	e.tickRange(&e.wheels[s+1], lo, e.shardHi[s], c)
}

// stepSharded executes one cycle of a sharded engine: phase A over all
// shards (parallel when a runner is live, serial otherwise — the
// results are identical), the drain hook, then the serial hub pass.
func (e *Engine) stepSharded() {
	c := e.cycle
	// Until the hub pass starts every hub component's turn is still ahead
	// (a drain-phase wake may land on this cycle), while each shard's pos
	// ends phase A on its last component (a drain-phase wake lands on the
	// next) — exactly the floors a sequential pass positioned between the
	// two regions would compute.
	hub := &e.wheels[0]
	hub.pos = e.hubLo() - 1
	e.inCycle = true
	if e.runner != nil {
		e.runner.runCycle(c)
	} else {
		for s := range e.shardHi {
			e.tickShard(s, c)
		}
	}
	if e.drain != nil {
		e.drain(c)
	}
	e.tickRange(hub, e.hubLo(), len(e.components), c)
	e.inCycle = false
	e.cycle = c + 1
}

// startWorkers spins up the phase-A worker pool for the duration of one
// run entry and returns the matching stop function. On an unsharded
// engine, with a single effective worker, or when a pool is already
// live (a nested run), it is a no-op. The stop function panics if a
// worker recorded a component panic that runCycle has not yet rethrown
// — the original panic, resurfaced on the engine goroutine.
func (e *Engine) startWorkers() func() {
	w := e.Workers()
	if w <= 1 || e.runner != nil {
		return func() {}
	}
	r := &shardRunner{e: e, workers: w - 1}
	for i := 0; i < r.workers; i++ {
		r.wg.Add(1)
		//lint:allow nondeterminism phase-A pool: shards own disjoint state and the drain replays effects in fixed order, so the schedule cannot reach the model (the -race byte-equality gates prove it)
		go r.work()
	}
	e.runner = r
	return func() {
		r.stop.Store(true)
		r.wg.Wait()
		e.runner = nil
		if p := r.firstPanic(); p != nil {
			panic(p)
		}
	}
}

// shardRunner is the phase-A worker pool: workers-many goroutines plus
// the engine goroutine claim shards from an atomic counter each cycle.
// The release counter is the cycle barrier's opening edge and arrived
// its closing edge; both are sync/atomic operations, so the race
// detector sees the happens-before chain (worker writes → arrived.Add →
// engine load → next release.Add → worker load) and any component state
// crossing a shard boundary outside it is reported as the data race it
// is — that is what the -race equivalence gates exercise.
type shardRunner struct {
	e       *Engine
	workers int // goroutines beyond the engine's own

	cycle   int64        // the cycle being executed; written before release
	release atomic.Int64 // incremented once per cycle to start phase A
	claim   atomic.Int64 // next unclaimed shard index
	arrived atomic.Int64 // workers that finished claiming this cycle
	stop    atomic.Bool
	wg      sync.WaitGroup

	mu    sync.Mutex
	panic any // first recovered phase-A panic, rethrown by the engine
}

// runCycle executes phase A for cycle c across the pool. It returns
// only after every worker has left its claim loop, so no stale claim
// can leak into the next cycle. Panics if a component panicked during
// phase A: the recorded panic is rethrown on the engine goroutine.
func (r *shardRunner) runCycle(c int64) {
	r.cycle = c
	r.claim.Store(0)
	r.arrived.Store(0)
	r.release.Add(1)
	r.claimShards(c)
	for r.arrived.Load() < int64(r.workers) {
		runtime.Gosched()
	}
	if p := r.firstPanic(); p != nil {
		panic(p)
	}
}

// work is one pool goroutine: wait for a cycle release, claim shards
// until none remain, check in, repeat until stopped. Stops are only
// requested between cycles, so a stopping worker is never mid-shard.
func (r *shardRunner) work() {
	defer r.wg.Done()
	seen := int64(0)
	for {
		for r.release.Load() == seen {
			if r.stop.Load() {
				return
			}
			runtime.Gosched()
		}
		seen++
		r.claimShards(r.cycle)
		r.arrived.Add(1)
	}
}

// claimShards ticks shards off the shared counter until all are taken.
// A panicking component poisons the run, not the pool: the panic is
// recorded and rethrown on the engine goroutine after the barrier.
func (r *shardRunner) claimShards(c int64) {
	n := int64(len(r.e.shardHi))
	for {
		s := r.claim.Add(1) - 1
		if s >= n {
			return
		}
		r.tickOne(int(s), c)
	}
}

func (r *shardRunner) tickOne(s int, c int64) {
	defer r.capture()
	r.e.tickShard(s, c)
}

// capture is tickOne's deferred recovery: it records the first phase-A
// panic for the engine goroutine to rethrow. A method rather than a
// closure so the per-shard-per-cycle defer stays allocation-free.
func (r *shardRunner) capture() {
	if p := recover(); p != nil {
		r.mu.Lock()
		if r.panic == nil {
			r.panic = p
		}
		r.mu.Unlock()
	}
}

func (r *shardRunner) firstPanic() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.panic
}

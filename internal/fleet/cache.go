package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Cache is a content-addressed, single-flight memo: the first job to
// present a key computes the value while concurrent presenters of the same
// key wait for it, and later presenters reuse it outright. Simulations are
// deterministic, so a cached outcome is indistinguishable from a re-run.
// It holds values in memory for its own life and nothing else: a caller
// that wants a durable tier (the serving daemon's store) reads and writes
// it inside its job's Run.
type Cache struct {
	mu    sync.Mutex
	m     map[string]*entry
	stats CacheStats
}

// errComputePanicked poisons a single-flight entry whose computation
// panicked, so coalesced waiters fail fast instead of waiting forever.
var errComputePanicked = errors.New("fleet: cached computation panicked")

type entry struct {
	done chan struct{}
	// complete flips under mu once the value is stored, so lookups can
	// classify themselves as hit (finished entry) or coalesced (in-flight
	// entry) without a non-blocking channel read.
	complete bool
	val      any
	err      error
}

// CacheStats counts run-cache activity. Every keyed, unobserved job run
// against the cache is exactly one lookup; single flight guarantees each
// distinct key is computed once, so Lookups, Misses and Served (= Hits +
// Coalesced) are deterministic at any worker count. Only the
// Hits/Coalesced split is timing-dependent: whether a repeat presenter
// found the first computation finished or still in flight depends on
// scheduling.
// Byte-compared artifacts must therefore report Served, never the split.
type CacheStats struct {
	Lookups   int64 // keyed jobs presented to the cache
	Misses    int64 // first presentations, each computed exactly once
	Hits      int64 // served from a finished entry
	Coalesced int64 // waited on an in-flight computation of the same key
}

// Served returns the lookups answered without a fresh computation.
func (s CacheStats) Served() int64 { return s.Hits + s.Coalesced }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: map[string]*entry{}}
}

// do returns the cached value for key, computing it via compute on first
// presentation. Concurrent callers of the same key block until the first
// computation finishes (single flight).
//
// Error-caching contract: errors are cached exactly like values, for the
// life of the entry. The simulator is deterministic, so a failing
// configuration fails identically on every retry and recomputing would
// only re-pay the failure. That includes degraded-run errors
// (fault.ErrDegraded with partial results): the entry is pinned to its
// key, and a later healthy run of the same inputs can never be served it
// as long as the key names the plan — which is the caller's job: the
// plan is part of whatever the key is built from wherever a plan can
// apply, so the healthy run presents a different key. The only uncached
// outcome is a panic: the entry is poisoned with an error for any
// coalesced waiters (so they fail instead of hanging), dropped from the
// map (so the key stays retryable), and the panic unwinds through to the
// computing caller.
func (c *Cache) do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	c.stats.Lookups++
	if e, ok := c.m[key]; ok {
		if e.complete {
			c.stats.Hits++
		} else {
			c.stats.Coalesced++
		}
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	c.stats.Misses++
	e := &entry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		// compute panicked and the panic is unwinding through this frame:
		// poison the entry for coalesced waiters, drop the key, and let
		// the panic continue to the caller.
		c.mu.Lock()
		delete(c.m, key)
		e.complete = true
		c.mu.Unlock()
		e.err = errComputePanicked
		close(e.done)
	}()
	e.val, e.err = compute()
	finished = true
	c.mu.Lock()
	e.complete = true
	c.mu.Unlock()
	close(e.done)
	return e.val, e.err
}

// Key builds a content-addressed cache key: a stable hash over the
// experiment kind and every input that affects the result (machine
// parameters, workload profile or size, scheduling policy, ablation
// switches). Parts are serialized with %#v, so they must be plain values —
// structs of scalars, slices, strings — never pointers or maps, whose
// rendering is not stable. Distinct inputs yield distinct keys; the kind
// label keeps experiments with coincidentally equal inputs (and different
// result types) apart. Nothing ambient is mixed in: an input the parts do
// not name — a fault plan, say — is an input the key does not cover.
// Its one caller left is cmd/cedarperf, whose debts (ROADMAP, "Debts
// behind the frozen seam") include deleting it.
func Key(kind string, parts ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s", kind)
	for _, p := range parts {
		fmt.Fprintf(h, "|%#v", p)
	}
	return kind + ":" + hex.EncodeToString(h.Sum(nil)[:16])
}

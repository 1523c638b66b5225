package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"cedar/internal/scope"
)

// Cache is a content-addressed, single-flight run cache: the first job to
// present a key computes the value while concurrent presenters of the same
// key wait for it, and later presenters reuse it outright. Simulations are
// deterministic, so a cached outcome is indistinguishable from a re-run.
//
// An optional SecondLevel (SetStore) turns the cache into the first tier
// of a two-level lookup: in-process map, then durable byte store, then
// compute. Only []byte values round-trip through the second level.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*entry
	second SecondLevel
	stats  CacheStats
}

// SecondLevel is a durable byte store behind the in-process cache —
// internal/store's Store implements it. On a first presentation of a key
// the cache consults Get before computing, and writes a freshly computed
// []byte value through with Put. Values of any other type bypass the
// second level entirely (the store is byte-addressed; cedarserve's
// response bodies are the intended tenants). Both slices are the cached
// value itself, which every presenter of the key receives: Put must not
// modify its argument, and Get must not reuse what it returned.
type SecondLevel interface {
	Get(key string) ([]byte, bool)
	Put(key string, blob []byte)
}

// SetStore attaches (or, with nil, detaches) the cache's second level.
// Attach before the first lookup: entries already cached in memory are
// not written back.
func (c *Cache) SetStore(s SecondLevel) {
	c.mu.Lock()
	c.second = s
	c.mu.Unlock()
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
	// DiskHits counts the subset of Misses answered by the second-level
	// store without computing (Misses - DiskHits presentations actually
	// ran the job). Always zero when no store is attached.
	DiskHits int64
}

// Served returns the lookups answered without a fresh computation.
func (s CacheStats) Served() int64 { return s.Hits + s.Coalesced }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Publish registers the cache's counters and entry count on h under the
// fleet.cache.* namespace. Note the Hits/Coalesced caveat on CacheStats:
// runs that must be byte-identical across -jobs values should only rely
// on lookups, misses and the derived served count.
func (c *Cache) Publish(h *scope.Hub) {
	h.Counter("fleet.cache.lookups", func() int64 { return c.Stats().Lookups })
	h.Counter("fleet.cache.misses", func() int64 { return c.Stats().Misses })
	h.Counter("fleet.cache.hits", func() int64 { return c.Stats().Hits })
	h.Counter("fleet.cache.coalesced", func() int64 { return c.Stats().Coalesced })
	h.Counter("fleet.cache.diskhits", func() int64 { return c.Stats().DiskHits })
	h.Gauge("fleet.cache.entries", func() int64 { return int64(c.Len()) })
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: map[string]*entry{}}
}

// do returns the cached value for key, computing it via compute on first
// presentation. Concurrent callers of the same key block until the first
// computation finishes (single flight). When a second level is attached,
// a first presentation consults it before computing, and a computed
// []byte value is written through.
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
	second := c.second
	c.mu.Unlock()

	if second != nil {
		if blob, ok := second.Get(key); ok {
			e.val = blob
			c.mu.Lock()
			c.stats.DiskHits++
			e.complete = true
			c.mu.Unlock()
			close(e.done)
			return e.val, nil
		}
	}

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
	if e.err == nil && second != nil {
		if blob, ok := e.val.([]byte); ok {
			second.Put(key, blob)
		}
	}
	c.mu.Lock()
	e.complete = true
	c.mu.Unlock()
	close(e.done)
	return e.val, e.err
}

// Len returns the number of cached (or in-flight) keys.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
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

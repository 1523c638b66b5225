// Package cache models the Alliant FX/8 four-way interleaved shared cache:
// 512 KB, 32-byte lines, physically addressed, write-back, and lockup-free
// with two outstanding misses per CE. Its bandwidth is eight 64-bit words
// per instruction cycle — one input stream per vector pipe in each of the
// eight CEs — while the cluster memory behind it provides half of that.
//
// The model keeps a real tag array (set-associative with LRU replacement;
// params.CacheWays, direct-mapped by default) so capacity and conflict
// behaviour are genuine, but reads data through the shared backing store;
// the cache's job in the simulation is timing, the store's is values.
//
// The tag array is demand-paged: it is held as pages of pageSets sets, and
// a page exists only once a fill has landed in it. An absent page reads as
// pageSets empty sets — the zero frame is the empty frame — so a run pays
// host memory for the lines it touches, not for the 512 KB capacity
// (DESIGN.md, "Demand-materialised state").
package cache

import (
	"fmt"

	"cedar/internal/cmem"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// Sink receives word-access completions. Completions carry the
// submitter's tag instead of a per-request closure so that the CE's
// per-cycle submissions allocate nothing (the CE encodes which operation
// and element the access belongs to in the tag and implements CacheDone
// once).
type Sink interface {
	CacheDone(tag uint64, cycle int64)
}

type request struct {
	addr  uint64
	write bool
	value int64
	sink  Sink
	tag   uint64
}

// queueCap bounds each CE's pending requests at the cache.
const queueCap = 8

// ring is one CE's side of the cache: its request queue, a fixed circular
// buffer of queueCap slots, so accepting and serving an access never
// allocates, and the count of its misses in flight. A cache's rings are
// one slab, made by its first Submit: a cluster whose CEs never use the
// cache (every point that streams only global memory) pays for no request
// queue and no miss count.
type ring struct {
	buf     [queueCap]request
	head    int
	n       int
	missOut int
}

// pageSets is the number of sets per tag-store page.
const pageSets = 256

// frame is one cache line's tag entry. The zero value is an empty frame,
// which is what lets an unmaterialised page stand for pageSets empty sets.
type frame struct {
	line  uint64 // line address, meaningful only when valid
	valid bool
	dirty bool
	used  int64 // last-touch stamp for LRU within a set
}

type mshr struct {
	owner   int // CE whose miss allocated the entry
	waiting []request
}

// Cache is one cluster's shared cache in front of its cluster memory.
type Cache struct {
	p   timing
	mem *cmem.Memory

	nCE       int
	lineWords uint64
	numSets   uint64
	ways      int
	clock     int64 // LRU stamp source

	// pages[i] holds sets [i*pageSets, (i+1)*pageSets), ways frames each;
	// nil until the first fill into that range. The index itself is nil
	// until the first fill.
	pages  [][]frame
	queues []ring // nCE rings; nil until the first Submit
	queued int    // requests across all queues
	// mshrs holds the misses in flight by line; nil until the first miss.
	mshrs    map[uint64]*mshr
	mshrFree []*mshr // retired entries, reused so misses stop allocating

	firing []firing
	stats  Stats
	// lastTick is the last executed cycle, for exact per-cycle counter
	// accounting across engine jumps: a sleeping cache's state is frozen
	// (Submit and fills wake it), so skipped cycles contribute gap × the
	// frozen classification.
	lastTick int64
	wake     sim.Handle
}

// timing is what a cache reads of params.Machine once it is built. A
// cache keeps these three constants, not a copy of the whole parameter
// set: a copy is 272 bytes on every cluster of every machine built.
type timing struct {
	CacheWordsPerCyc int
	CacheHitLatency  int
	CacheMissPerCE   int
}

type firing struct {
	at   int64
	sink Sink
	tag  uint64
}

// Stats holds cumulative cache counters. BusyCyc and WaitCyc classify
// each cache-cycle into at most one bucket (by the state at tick entry),
// so busy+stall never exceeds elapsed cycles and the attribution
// conservation law holds exactly.
type Stats struct {
	Hits       int64
	Misses     int64
	MissAttach int64 // requests folded into an in-flight fill
	WriteBacks int64
	StallCyc   int64 // CE-cycles a queue head waited for a miss slot (events)
	BusyCyc    int64 // cycles actively serving queued requests
	// WaitCyc counts cycles with empty queues but outstanding misses or
	// pending completions — the cache waiting on cluster memory.
	WaitCyc int64
}

// New builds the cache for nCE client CEs over the given cluster memory.
// Panics if the parameterised geometry is degenerate (a line smaller
// than a word, or fewer lines than ways).
func New(p params.Machine, nCE int, mem *cmem.Memory) *Cache {
	lineWords := uint64(p.CacheLineBytes / params.WordBytes)
	if lineWords == 0 {
		panic("cache: line smaller than a word")
	}
	ways := p.CacheWays
	if ways < 1 {
		ways = 1
	}
	numLines := uint64(p.CacheBytes / p.CacheLineBytes)
	numSets := numLines / uint64(ways)
	if numSets == 0 {
		panic("cache: fewer lines than ways")
	}
	c := &Cache{
		p: timing{
			CacheWordsPerCyc: p.CacheWordsPerCyc,
			CacheHitLatency:  p.CacheHitLatency,
			CacheMissPerCE:   p.CacheMissPerCE,
		},
		mem:       mem,
		nCE:       nCE,
		lineWords: lineWords,
		numSets:   numSets,
		ways:      ways,
	}
	c.lastTick = -1
	return c
}

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// MSHRInUse returns the number of outstanding miss lines — an occupancy
// gauge for the observability hub.
func (c *Cache) MSHRInUse() int { return len(c.mshrs) }

// QueuedRequests returns the word accesses waiting in per-CE queues.
func (c *Cache) QueuedRequests() int { return c.queued }

// Submit enqueues a word access for a CE. sink.CacheDone(tag, cycle)
// fires when the word is available (reads) or accepted (writes); sink may
// be nil for fire-and-forget stores. It returns false when the CE's queue
// is full; the caller retries next cycle. Panics if ce is out of range —
// a wiring bug, not a runtime condition.
func (c *Cache) Submit(ce int, addr uint64, write bool, value int64, sink Sink, tag uint64) bool {
	if ce < 0 || ce >= c.nCE {
		panic(fmt.Sprintf("cache: CE %d out of range", ce))
	}
	if c.queues == nil {
		c.queues = make([]ring, c.nCE) // first touch: once per cache, on its first access
	}
	q := &c.queues[ce]
	if q.n == queueCap {
		return false
	}
	q.buf[(q.head+q.n)%queueCap] = request{addr: addr, write: write, value: value, sink: sink, tag: tag}
	q.n++
	c.queued++
	c.wake.Wake(0) // clamps to the currently executing cycle
	return true
}

// SetWaker installs the cache's engine handle; Submit and fill wake it to
// rouse a sleeping cache. Until one is wired the cache never sleeps.
func (c *Cache) SetWaker(wake sim.Handle) { c.wake = wake }

// NextWakeup implements sim.Sleeper: now while requests are queued (one
// round-robin pass per cycle), the earliest pending completion
// otherwise. Outstanding misses alone need no ticks — the cluster
// memory's FillDone callback wakes the cache when the line lands.
func (c *Cache) NextWakeup(now int64) int64 {
	if c.wake.IsZero() {
		return now
	}
	if c.queued > 0 {
		return now
	}
	w := sim.Never
	for i := range c.firing {
		if at := c.firing[i].at; at < w {
			w = at
		}
	}
	if w < now {
		return now
	}
	return w
}

// Idle reports whether no requests are queued, in flight, or completing.
func (c *Cache) Idle() bool {
	return len(c.mshrs) == 0 && len(c.firing) == 0 && c.queued == 0
}

// set returns the frames of the set holding line, or nil when no fill has
// reached the set's page yet (every frame in it is empty), and so also
// before any fill has made the page index. It never allocates.
func (c *Cache) set(line uint64) []frame {
	if c.pages == nil {
		return nil
	}
	s := line % c.numSets
	pg := c.pages[s/pageSets]
	if pg == nil {
		return nil
	}
	o := (s % pageSets) * uint64(c.ways)
	return pg[o : o+uint64(c.ways)]
}

// fillSet is set for the one caller that writes a tag: it materialises
// the page index on the cache's first fill and the page on first touch.
func (c *Cache) fillSet(line uint64) []frame {
	if c.pages == nil {
		c.pages = make([][]frame, (c.numSets+pageSets-1)/pageSets) // first touch: once per cache, on its first fill
	}
	pi := (line % c.numSets) / pageSets
	if c.pages[pi] == nil {
		sets := min(pageSets, c.numSets-pi*pageSets)
		c.pages[pi] = make([]frame, sets*uint64(c.ways)) // first touch: at most one per tag-store page per run
	}
	return c.set(line)
}

// lookup returns the frame holding line, or nil.
func (c *Cache) lookup(line uint64) *frame {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// victim returns the set's replacement frame: LRU, except that an empty
// frame past the first is taken as soon as it is seen.
func victim(set []frame) *frame {
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].used < v.used {
			v = &set[i]
		}
	}
	return v
}

// Contains reports whether the line holding addr is resident, for tests.
func (c *Cache) Contains(addr uint64) bool {
	return c.lookup(addr/c.lineWords) != nil
}

// Tick serves up to CacheWordsPerCyc requests round-robin across the CE
// queues and fires due completions.
func (c *Cache) Tick(cycle int64) {
	if gap := cycle - c.lastTick - 1; gap > 0 {
		// A sleeping cache has empty queues (an accepted Submit wakes it
		// the same cycle), so the skipped cycles classify purely by the
		// miss/firing set — frozen since the last tick or fill settlement.
		if len(c.mshrs) > 0 || len(c.firing) > 0 {
			c.stats.WaitCyc += gap
		}
	}
	c.lastTick = cycle
	switch {
	case c.queued > 0:
		c.stats.BusyCyc++
	case len(c.mshrs) > 0 || len(c.firing) > 0:
		c.stats.WaitCyc++
	}

	if len(c.firing) > 0 {
		keep := c.firing[:0]
		for _, f := range c.firing {
			if f.at <= cycle {
				f.sink.CacheDone(f.tag, cycle)
			} else {
				keep = append(keep, f)
			}
		}
		c.firing = keep
	}

	// One round-robin pass: each CE may be served up to two words per
	// cycle (a load stream plus a store), within the cluster-wide
	// CacheWordsPerCyc budget. The scan start rotates with the cycle
	// number, not a tick counter: arbitration must not depend on how many
	// ticks actually ran, or skipping a sleeping cache's no-op ticks
	// would reorder service relative to the stepped schedule. With no
	// request queued the pass would serve nothing, and the rings may not
	// exist yet.
	if c.queued == 0 {
		return
	}
	credit := c.p.CacheWordsPerCyc
	start := int((cycle + 1) % int64(c.nCE))
	for scan := 0; scan < c.nCE && credit > 0; scan++ {
		ce := (start + scan) % c.nCE
		for served := 0; served < 2 && credit > 0 && c.queues[ce].n > 0; served++ {
			if !c.serveHead(ce, cycle) {
				c.stats.StallCyc++
				break
			}
			credit--
		}
	}
}

// serveHead attempts the head request of a CE queue. It reports whether a
// request was consumed (hit, write, or miss initiation/attachment).
func (c *Cache) serveHead(ce int, cycle int64) bool {
	q := &c.queues[ce]
	r := q.buf[q.head]
	line := r.addr / c.lineWords
	c.clock++

	if fr := c.lookup(line); fr != nil {
		// Hit.
		c.stats.Hits++
		fr.used = c.clock
		if r.write {
			fr.dirty = true
			c.mem.Store().StoreWord(r.addr, r.value)
			if r.sink != nil {
				c.firing = append(c.firing, firing{at: cycle, sink: r.sink, tag: r.tag})
			}
		} else if r.sink != nil {
			c.firing = append(c.firing, firing{at: cycle + int64(c.p.CacheHitLatency), sink: r.sink, tag: r.tag})
		}
		c.popHead(q)
		return true
	}

	if m, ok := c.mshrs[line]; ok {
		// Fold into the in-flight fill.
		c.stats.MissAttach++
		m.waiting = append(m.waiting, r)
		c.popHead(q)
		return true
	}

	// New miss: needs one of the CE's two miss slots.
	if q.missOut >= c.p.CacheMissPerCE {
		return false
	}
	c.stats.Misses++
	q.missOut++
	m := c.getMSHR()
	m.owner = ce
	m.waiting = append(m.waiting, r)
	if c.mshrs == nil {
		c.mshrs = make(map[uint64]*mshr) // first touch: once per cache, on its first miss
	}
	c.mshrs[line] = m
	c.popHead(q)

	// Evict the set's LRU occupant (write-back if dirty) and fetch. A set
	// on an absent page is all empty: there is nothing to evict.
	if set := c.set(line); set != nil {
		fr := victim(set)
		if fr.valid && fr.dirty {
			c.stats.WriteBacks++
			c.mem.Submit(int(c.lineWords), nil, 0)
		}
		fr.valid = false
		fr.dirty = false
	}
	// The cache itself is the fill sink: the tag carries the line, so no
	// per-miss closure is needed.
	c.mem.Submit(int(c.lineWords), c, line)
	return true
}

// popHead consumes the head request of a CE queue.
func (c *Cache) popHead(q *ring) {
	q.head = (q.head + 1) % queueCap
	q.n--
	c.queued--
}

// FillDone implements cmem.Sink: a line fetch submitted with the line
// address as tag has completed.
func (c *Cache) FillDone(tag uint64, cycle int64) { c.fill(tag, cycle) }

// getMSHR reuses a retired miss entry or makes a new one.
func (c *Cache) getMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return &mshr{} // pool refill on first use; steady state reuses retired MSHRs
}

// putMSHR retires a completed miss entry for reuse.
func (c *Cache) putMSHR(m *mshr) {
	m.owner = 0
	m.waiting = m.waiting[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// fill completes a line fetch: installs the tag and releases waiters.
func (c *Cache) fill(line uint64, cycle int64) {
	m := c.mshrs[line]
	if m == nil {
		return
	}
	if gap := cycle - c.lastTick; gap > 0 {
		// Cluster memory ticks after the cache, so a sleeping cache has
		// already skipped its slot this cycle; settle the elapsed cycles
		// (waiting — this very miss was outstanding) before the fill
		// mutates the classification, e.g. a nil-sink store miss whose
		// completion leaves nothing pending.
		c.stats.WaitCyc += gap
		c.lastTick = cycle
	}
	delete(c.mshrs, line)
	c.queues[m.owner].missOut--
	fr := victim(c.fillSet(line))
	c.clock++
	fr.line = line
	fr.valid = true
	fr.dirty = false
	fr.used = c.clock
	earliest := sim.Never
	for _, r := range m.waiting {
		if r.write {
			fr.dirty = true
			c.mem.Store().StoreWord(r.addr, r.value)
			if r.sink != nil {
				c.firing = append(c.firing, firing{at: cycle, sink: r.sink, tag: r.tag})
				earliest = cycle
			}
		} else if r.sink != nil {
			at := cycle + int64(c.p.CacheHitLatency)
			c.firing = append(c.firing, firing{at: at, sink: r.sink, tag: r.tag})
			if at < earliest {
				earliest = at
			}
		}
	}
	if earliest != sim.Never {
		c.wake.Wake(earliest)
	}
	c.putMSHR(m)
}

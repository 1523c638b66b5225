package cache

import (
	"testing"

	"cedar/internal/cmem"
	"cedar/internal/params"
)

// doneFunc adapts a completion closure to the cache's Sink interface so
// tests can keep asserting on completion cycles.
type doneFunc func(cy int64)

func (f doneFunc) CacheDone(_ uint64, cy int64) { f(cy) }

type rig struct {
	p     params.Machine
	mem   *cmem.Memory
	c     *Cache
	cycle int64
}

func newRig() *rig {
	p := params.Default()
	mem := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
	return &rig{p: p, mem: mem, c: New(p, p.CEsPerCluster, mem)}
}

func (r *rig) tick() {
	r.c.Tick(r.cycle)
	r.mem.Tick(r.cycle)
	r.cycle++
}

func (r *rig) runUntilIdle(t *testing.T, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if r.c.Idle() && r.mem.Idle() {
			return
		}
		r.tick()
	}
	t.Fatalf("not idle after %d cycles", limit)
}

func TestMissThenHit(t *testing.T) {
	r := newRig()
	var missDone, hitDone int64 = -1, -1
	if !r.c.Submit(0, 100, false, 0, doneFunc(func(cy int64) { missDone = cy }), 0) {
		t.Fatal("submit refused")
	}
	r.runUntilIdle(t, 1000)
	if missDone < 0 {
		t.Fatal("miss never completed")
	}
	// Miss cost ≥ cluster memory latency.
	if missDone < int64(r.p.CMemLatency) {
		t.Errorf("miss completed at %d, faster than cluster memory latency %d", missDone, r.p.CMemLatency)
	}
	if !r.c.Contains(100) {
		t.Error("line not resident after fill")
	}
	start := r.cycle
	r.c.Submit(0, 101, false, 0, doneFunc(func(cy int64) { hitDone = cy }), 0) // same 4-word line
	r.runUntilIdle(t, 1000)
	if hitDone < 0 {
		t.Fatal("hit never completed")
	}
	if lat := hitDone - start; lat > int64(r.p.CacheHitLatency)+1 {
		t.Errorf("hit latency %d, want ≈%d", lat, r.p.CacheHitLatency)
	}
	st := r.c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", st)
	}
}

func TestWriteReadThroughStore(t *testing.T) {
	r := newRig()
	ok := r.c.Submit(2, 555, true, 42, nil, 0)
	if !ok {
		t.Fatal("refused")
	}
	r.runUntilIdle(t, 1000)
	if got := r.mem.Store().Load(555); got != 42 {
		t.Fatalf("store = %d, want 42", got)
	}
	var got int64
	r.c.Submit(3, 555, false, 0, doneFunc(func(int64) { got = r.mem.Store().Load(555) }), 0)
	r.runUntilIdle(t, 1000)
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
}

func TestMissesFoldIntoMSHR(t *testing.T) {
	r := newRig()
	done := 0
	for i := 0; i < 4; i++ {
		addr := uint64(200 + i) // same 32-byte line (4 words)
		if !r.c.Submit(i%2, addr, false, 0, doneFunc(func(int64) { done++ }), 0) {
			t.Fatal("refused")
		}
	}
	r.runUntilIdle(t, 1000)
	if done != 4 {
		t.Fatalf("%d completions, want 4", done)
	}
	st := r.c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one line)", st.Misses)
	}
	if st.MissAttach != 3 {
		t.Errorf("attached = %d, want 3", st.MissAttach)
	}
}

func TestLockupFreeTwoMissesPerCE(t *testing.T) {
	r := newRig()
	// Three distinct lines from one CE: the third miss must wait for a
	// miss slot, so completions arrive in two waves.
	var times []int64
	for i := 0; i < 3; i++ {
		addr := uint64(i * 1024)
		if !r.c.Submit(0, addr, false, 0, doneFunc(func(cy int64) { times = append(times, cy) }), 0) {
			t.Fatal("refused")
		}
	}
	r.runUntilIdle(t, 1000)
	if len(times) != 3 {
		t.Fatalf("%d completions, want 3", len(times))
	}
	if r.c.Stats().StallCyc == 0 {
		t.Error("third miss should have stalled for a miss slot")
	}
	if times[2] <= times[1] {
		t.Error("third miss should complete after the first wave")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	p := params.Default()
	p.CacheBytes = 4 * p.CacheLineBytes // tiny 4-line cache to force eviction
	mem := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
	c := New(p, 1, mem)
	cycle := int64(0)
	step := func() { c.Tick(cycle); mem.Tick(cycle); cycle++ }
	run := func() {
		for i := 0; i < 1000 && !(c.Idle() && mem.Idle()); i++ {
			step()
		}
	}
	c.Submit(0, 0, true, 7, nil, 0) // dirty line 0
	run()
	// Line 4*lineWords maps to the same frame in a 4-line cache.
	conflict := uint64(4 * (p.CacheLineBytes / 8) * 4)
	_ = conflict
	c.Submit(0, uint64(4*4), false, 0, nil, 0) // line index 4 -> frame 0
	run()
	if c.Stats().WriteBacks != 1 {
		t.Errorf("write-backs = %d, want 1", c.Stats().WriteBacks)
	}
	if c.Contains(0) {
		t.Error("victim line still resident")
	}
}

func TestQueueBackPressure(t *testing.T) {
	r := newRig()
	n := 0
	for i := 0; ; i++ {
		if !r.c.Submit(0, uint64(i), false, 0, nil, 0) {
			break
		}
		n++
		if n > 100 {
			t.Fatal("queue never filled")
		}
	}
	if n != queueCap {
		t.Errorf("accepted %d before refusing, want %d", n, queueCap)
	}
	r.runUntilIdle(t, 10000)
	if !r.c.Submit(0, 0, false, 0, nil, 0) {
		t.Error("still refusing after drain")
	}
	r.runUntilIdle(t, 1000)
}

func TestBandwidthEightWordsPerCycle(t *testing.T) {
	// All 8 CEs streaming hits: aggregate ≈8 words/cycle.
	r := newRig()
	// Warm one line per CE region, then stream hits.
	for ce := 0; ce < 8; ce++ {
		r.c.Submit(ce, uint64(ce*4), false, 0, nil, 0)
	}
	r.runUntilIdle(t, 1000)
	done := 0
	const perCE = 100
	pending := make([]int, 8)
	issued := make([]int, 8)
	start := r.cycle
	for done < 8*perCE {
		for ce := 0; ce < 8; ce++ {
			ce := ce
			if issued[ce] < perCE && pending[ce] < queueCap {
				addr := uint64(ce*4) + uint64(issued[ce]%4)
				if r.c.Submit(ce, addr, false, 0, doneFunc(func(int64) { done++; pending[ce]-- }), 0) {
					issued[ce]++
					pending[ce]++
				}
			}
		}
		r.tick()
		if r.cycle-start > 10000 {
			t.Fatal("stalled")
		}
	}
	elapsed := r.cycle - start
	perCycle := float64(8*perCE) / float64(elapsed)
	if perCycle < 6.5 {
		t.Errorf("hit bandwidth %.2f words/cycle, want ≈8", perCycle)
	}
}

func TestSingleCECappedAtTwoWordsPerCycle(t *testing.T) {
	r := newRig()
	r.c.Submit(0, 0, false, 0, nil, 0)
	r.runUntilIdle(t, 1000)
	done := 0
	issued := 0
	pendingCount := 0
	start := r.cycle
	const n = 100
	for done < n {
		if issued < n && pendingCount < queueCap {
			if r.c.Submit(0, uint64(issued%4), false, 0, doneFunc(func(int64) { done++; pendingCount-- }), 0) {
				issued++
				pendingCount++
			}
		}
		r.tick()
		if r.cycle-start > 10000 {
			t.Fatal("stalled")
		}
	}
	elapsed := r.cycle - start
	perCycle := float64(n) / float64(elapsed)
	if perCycle > 2.2 {
		t.Errorf("single CE got %.2f words/cycle, cap is 2", perCycle)
	}
}

func TestSetAssociativityAvoidsConflictMisses(t *testing.T) {
	// Two lines that map to the same set thrash a direct-mapped cache
	// but coexist in a 2-way set.
	run := func(ways int) int64 {
		p := params.Default()
		p.CacheBytes = 4 * p.CacheLineBytes // 4 lines total
		p.CacheWays = ways
		mem := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
		c := New(p, 1, mem)
		cycle := int64(0)
		run := func() {
			for i := 0; i < 2000 && !(c.Idle() && mem.Idle()); i++ {
				c.Tick(cycle)
				mem.Tick(cycle)
				cycle++
			}
		}
		lineWords := uint64(p.CacheLineBytes / 8)
		sets := uint64(4 / ways)
		a := uint64(0)
		b := sets * lineWords // same set as a, different tag
		for rep := 0; rep < 10; rep++ {
			c.Submit(0, a, false, 0, nil, 0)
			run()
			c.Submit(0, b, false, 0, nil, 0)
			run()
		}
		return c.Stats().Misses
	}
	direct := run(1)
	twoWay := run(2)
	if direct < 15 {
		t.Errorf("direct-mapped misses %d; alternating conflict lines should thrash", direct)
	}
	if twoWay > 4 {
		t.Errorf("2-way misses %d; both lines should coexist", twoWay)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way, one set: touching A, B, A then C must evict B (LRU), not A.
	p := params.Default()
	p.CacheBytes = 2 * p.CacheLineBytes
	p.CacheWays = 2
	mem := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
	c := New(p, 1, mem)
	cycle := int64(0)
	run := func() {
		for i := 0; i < 2000 && !(c.Idle() && mem.Idle()); i++ {
			c.Tick(cycle)
			mem.Tick(cycle)
			cycle++
		}
	}
	lw := uint64(p.CacheLineBytes / 8)
	a, b, cc := uint64(0), 1*lw, 2*lw
	for _, addr := range []uint64{a, b, a, cc} {
		c.Submit(0, addr, false, 0, nil, 0)
		run()
	}
	if !c.Contains(a) {
		t.Error("A (recently used) evicted")
	}
	if c.Contains(b) {
		t.Error("B (least recently used) survived")
	}
	if !c.Contains(cc) {
		t.Error("C not installed")
	}
}

// countSink counts completions without a per-request closure.
type countSink struct{ done int64 }

func (s *countSink) CacheDone(uint64, int64) { s.done++ }

// TestSteadyStateAllocsSubmitTick is the runtime allocation gate on the
// cache: once the per-CE rings exist, the firing list has grown and the
// MSHR free-list has filled, neither a hit stream nor a stream that opens
// a fresh line on every fourth access may allocate in Submit or Tick.
// (A slide-forward slice queue allocates through append growth alone,
// which no syntactic rule sees, so this test is the guard.)
func TestSteadyStateAllocsSubmitTick(t *testing.T) {
	for _, hit := range []bool{true, false} {
		r := newRig()
		// Tag-store pages appear on first fill, at most once each per run:
		// that is set-up, so the fresh-line stream gets them all up front.
		r.c.materialiseAll()
		sink := &countSink{}
		lineWords := uint64(r.p.CacheLineBytes / params.WordBytes)
		pos := make([]uint64, r.p.CEsPerCluster)
		drive := func() {
			for n := 0; n < 400; n++ {
				for ce := range pos {
					// Regions 64 lines apart: the streams never share a set.
					base := uint64(ce)<<24 + uint64(ce)*64*lineWords
					addr := base + pos[ce]%lineWords
					if !hit && pos[ce]%4 == 3 {
						addr = base + (1+pos[ce]/4)*lineWords
					}
					if r.c.Submit(ce, addr, false, 0, sink, 0) {
						pos[ce]++
					}
				}
				r.tick()
			}
		}
		drive()
		if avg := testing.AllocsPerRun(10, drive); avg != 0 {
			t.Errorf("hit=%v: Submit+Tick allocate %.1f times per 400 cycles, want 0", hit, avg)
		}
		if sink.done == 0 {
			t.Fatalf("hit=%v: no access completed", hit)
		}
	}
}

// TestRingsAppearOnFirstSubmit: a cache whose CEs never use it holds no
// request queue however long it ticks, and its first Submit makes every
// CE's ring as one object.
func TestRingsAppearOnFirstSubmit(t *testing.T) {
	r := newRig()
	for i := 0; i < 100; i++ {
		r.tick()
	}
	if r.c.queues != nil {
		t.Fatalf("an unused cache holds %d request rings", len(r.c.queues))
	}
	const runs = 10
	caches := make([]*Cache, runs+1) // AllocsPerRun warms up with one more call
	for i := range caches {
		caches[i] = New(r.p, r.p.CEsPerCluster, r.mem)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		caches[next].Submit(r.p.CEsPerCluster-1, 100, true, 1, nil, 0)
		next++
	}); got != 1 {
		t.Errorf("a first Submit allocates %.0f objects, want 1: the ring slab", got)
	}
	if n := len(caches[0].queues); n != r.p.CEsPerCluster {
		t.Errorf("first Submit made %d rings, want one per CE (%d)", n, r.p.CEsPerCluster)
	}
}

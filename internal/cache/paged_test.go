package cache

import (
	"math/rand"
	"testing"

	"cedar/internal/cmem"
	"cedar/internal/params"
)

// eagerTags is the reference the demand-paged tag store is checked
// against: the whole tag array allocated and stamped invalid up front,
// with replacement written the way the cache did it before pages — so it
// also pins the change of encoding from "tag == invalidTag" to the zero
// frame. It models one access at a time (miss, then its fill).
type eagerTags struct {
	frames  []eagerFrame
	numSets uint64
	ways    uint64
	clock   int64

	hits, misses, writeBacks int64
}

type eagerFrame struct {
	tag   uint64
	dirty bool
	used  int64
}

const eagerInvalid = ^uint64(0)

func newEagerTags(numSets uint64, ways int) *eagerTags {
	e := &eagerTags{frames: make([]eagerFrame, numSets*uint64(ways)), numSets: numSets, ways: uint64(ways)}
	for i := range e.frames {
		e.frames[i].tag = eagerInvalid
	}
	return e
}

func (e *eagerTags) set(line uint64) []eagerFrame {
	s := (line % e.numSets) * e.ways
	return e.frames[s : s+e.ways]
}

func (e *eagerTags) lookup(line uint64) *eagerFrame {
	set := e.set(line)
	for i := range set {
		if set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

func (e *eagerTags) victim(line uint64) *eagerFrame {
	set := e.set(line)
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].tag == eagerInvalid {
			return &set[i]
		}
		if set[i].used < v.used {
			v = &set[i]
		}
	}
	return v
}

func (e *eagerTags) access(line uint64, write bool) {
	e.clock++
	if fr := e.lookup(line); fr != nil {
		e.hits++
		fr.used = e.clock
		fr.dirty = fr.dirty || write
		return
	}
	e.misses++
	fr := e.victim(line)
	if fr.tag != eagerInvalid && fr.dirty {
		e.writeBacks++
	}
	fr.tag, fr.dirty = eagerInvalid, false
	fr = e.victim(line)
	e.clock++
	*fr = eagerFrame{tag: line, dirty: write, used: e.clock}
}

// materialiseAll brings every tag-store page into being, as the eager
// constructor used to.
func (c *Cache) materialiseAll() {
	for s := uint64(0); s < c.numSets; s += pageSets {
		c.fillSet(s)
	}
}

// pagedGeometry is a cache of 1000 sets: four tag-store pages, the last
// one short (232 sets), so page arithmetic at both edges is exercised.
func pagedGeometry(ways int) params.Machine {
	p := params.Default()
	p.CacheWays = ways
	p.CacheBytes = 1000 * ways * p.CacheLineBytes
	return p
}

// pagedLines is the access universe: six conflicting lines for each of a
// few sets on the first and the last page. Pages 1 and 2 are never
// touched.
func pagedLines(numSets uint64) []uint64 {
	var lines []uint64
	for _, set := range []uint64{0, 1, 7, 255, 768, 900, 999} {
		for k := uint64(0); k < 6; k++ {
			lines = append(lines, set+k*numSets)
		}
	}
	return lines
}

// TestPagedTagsMatchEagerReference drives the cache and the eager
// reference with the same seeded access stream, one access at a time, and
// demands the same hits, misses, write-backs and residency after each.
func TestPagedTagsMatchEagerReference(t *testing.T) {
	for _, ways := range []int{1, 4} {
		p := pagedGeometry(ways)
		mem := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
		c := New(p, p.CEsPerCluster, mem)
		ref := newEagerTags(c.numSets, ways)
		lines := pagedLines(c.numSets)
		rng := rand.New(rand.NewSource(int64(13 + ways)))
		cycle := int64(0)

		for n := 0; n < 4000; n++ {
			line := lines[rng.Intn(len(lines))]
			write := rng.Intn(3) == 0
			addr := line*c.lineWords + uint64(rng.Intn(int(c.lineWords)))
			if !c.Submit(rng.Intn(p.CEsPerCluster), addr, write, int64(n), nil, 0) {
				t.Fatalf("ways=%d access %d refused on an idle cache", ways, n)
			}
			for !(c.Idle() && mem.Idle()) {
				c.Tick(cycle)
				mem.Tick(cycle)
				cycle++
			}
			ref.access(line, write)

			s := c.Stats()
			if s.Hits != ref.hits || s.Misses != ref.misses || s.WriteBacks != ref.writeBacks {
				t.Fatalf("ways=%d access %d: hits/misses/writebacks %d/%d/%d, reference %d/%d/%d",
					ways, n, s.Hits, s.Misses, s.WriteBacks, ref.hits, ref.misses, ref.writeBacks)
			}
			for _, l := range lines {
				if got, want := c.Contains(l*c.lineWords), ref.lookup(l) != nil; got != want {
					t.Fatalf("ways=%d access %d: Contains(line %d) = %v, reference %v", ways, n, l, got, want)
				}
			}
		}

		if c.Stats().WriteBacks == 0 || c.Stats().Hits == 0 {
			t.Fatalf("ways=%d: stream too tame to compare (stats %+v)", ways, c.Stats())
		}
		// Only the pages a fill reached exist, and probing the others does
		// not bring them into being.
		for _, set := range []uint64{256, 511, 512, 767} {
			if c.Contains(set * c.lineWords) {
				t.Errorf("ways=%d: untouched set %d reports a resident line", ways, set)
			}
		}
		if len(c.pages) != 4 || c.pages[0] == nil || c.pages[3] == nil || c.pages[1] != nil || c.pages[2] != nil {
			t.Errorf("ways=%d: pages materialised = %v, want only 0 and 3",
				ways, []bool{c.pages[0] != nil, c.pages[1] != nil, c.pages[2] != nil, c.pages[3] != nil})
		}
		if got, want := len(c.pages[3]), 232*ways; got != want {
			t.Errorf("ways=%d: short last page holds %d frames, want %d", ways, got, want)
		}
	}
}

// TestAbsentPageIsEmptyPage covers what one-at-a-time accesses cannot:
// overlapping misses to one set whose page does not exist yet. A cache
// with every page materialised up front must be indistinguishable — every
// counter, every cycle — from one that materialises on first fill.
func TestAbsentPageIsEmptyPage(t *testing.T) {
	for _, ways := range []int{1, 4} {
		p := pagedGeometry(ways)
		type side struct {
			mem *cmem.Memory
			c   *Cache
		}
		var lazy, eager side
		for _, s := range []*side{&lazy, &eager} {
			s.mem = cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
			s.c = New(p, p.CEsPerCluster, s.mem)
		}
		eager.c.materialiseAll()
		lines := pagedLines(lazy.c.numSets)
		rng := rand.New(rand.NewSource(int64(31 + ways)))

		for cycle := int64(0); cycle < 6000; cycle++ {
			// A burst from several CEs at once, two thirds of the time.
			for ce := 0; ce < p.CEsPerCluster && rng.Intn(3) > 0; ce++ {
				addr := lines[rng.Intn(len(lines))] * lazy.c.lineWords
				write := rng.Intn(4) == 0
				a := lazy.c.Submit(ce, addr, write, cycle, nil, 0)
				b := eager.c.Submit(ce, addr, write, cycle, nil, 0)
				if a != b {
					t.Fatalf("ways=%d cycle %d: Submit accepted %v lazily, %v eagerly", ways, cycle, a, b)
				}
			}
			for _, s := range []*side{&lazy, &eager} {
				s.c.Tick(cycle)
				s.mem.Tick(cycle)
			}
			if lazy.c.Stats() != eager.c.Stats() {
				t.Fatalf("ways=%d cycle %d: stats diverge\nlazy  %+v\neager %+v", ways, cycle, lazy.c.Stats(), eager.c.Stats())
			}
			for _, l := range lines {
				if lazy.c.Contains(l*lazy.c.lineWords) != eager.c.Contains(l*lazy.c.lineWords) {
					t.Fatalf("ways=%d cycle %d: residency of line %d diverges", ways, cycle, l)
				}
			}
		}
		if s := lazy.c.Stats(); s.MissAttach == 0 || s.StallCyc == 0 || s.WriteBacks == 0 {
			t.Fatalf("ways=%d: stream never overlapped misses (stats %+v)", ways, s)
		}
	}
}

// TestSteadyStateAllocsTagLookups is the allocation half of the page rule: a
// read-only probe of the tag store — Contains, or the lookup a queued
// access starts with — must not allocate, whatever page it lands on.
func TestSteadyStateAllocsTagLookups(t *testing.T) {
	c := newRig().c
	avg := testing.AllocsPerRun(100, func() {
		for set := uint64(0); set < c.numSets; set += pageSets / 2 {
			if c.Contains(set*c.lineWords) || c.set(set) != nil {
				t.Fatal("empty cache reports a resident line")
			}
		}
	})
	if avg != 0 {
		t.Errorf("probing an empty tag store allocates %.1f times, want 0", avg)
	}
	for pi, pg := range c.pages {
		if pg != nil {
			t.Errorf("page %d materialised by a lookup", pi)
		}
	}
}

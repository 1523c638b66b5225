package network

import (
	"slices"
	"testing"
	"unsafe"
)

// TestWordQueueEdges pins the linked FIFO's bounds: a line of capWords
// accepts exactly capWords one-word packets and refuses the next, a
// two-word packet is refused while one word is free, an empty line
// accepts one packet longer than its capacity (cut-through) and nothing
// after it, Pop returns the packets in order with their links cleared, and
// a packet popped and put back with PushFront is the next one out, on a
// full line and on an empty one.
func TestWordQueueEdges(t *testing.T) {
	const capWords = 4
	var q WordQueue
	pkts := make([]Packet, capWords)
	for i := range pkts {
		if !q.CanAccept(1, capWords) {
			t.Fatalf("line of %d words refused one-word packet %d", capWords, i)
		}
		q.Push(&pkts[i])
	}
	if q.CanAccept(1, capWords) {
		t.Fatalf("full line of %d words accepts one more word", capWords)
	}
	if p := q.Pop(); p != &pkts[0] || q.Head() != &pkts[1] {
		t.Fatalf("Pop returned %p, head %p; want %p, %p", p, q.Head(), &pkts[0], &pkts[1])
	}
	q.PushFront(&pkts[0])
	if q.Head() != &pkts[0] || q.CanAccept(1, capWords) {
		t.Fatal("PushFront did not restore the full line's head")
	}
	q.Pop()
	if q.CanAccept(WriteReq.WireWords(), capWords) {
		t.Fatal("line with one word free accepts a two-word packet")
	}
	if !q.CanAccept(ReadReq.WireWords(), capWords) {
		t.Fatal("line with one word free refuses a one-word packet")
	}
	for i := 1; i < len(pkts); i++ {
		if p := q.Pop(); p != &pkts[i] || p.next != nil {
			t.Fatalf("pop %d returned %p (next %v), want %p unlinked", i, p, p.next, &pkts[i])
		}
	}
	if q.Pop() != nil || q.head != nil || q.tail != nil || q.words != 0 {
		t.Fatalf("drained line is %+v, want empty", q)
	}
	q.PushFront(&pkts[0])
	if q.head != &pkts[0] || q.tail != &pkts[0] || q.words != 1 || q.Pop() != &pkts[0] || q.tail != nil {
		t.Fatalf("PushFront onto an empty line then Pop leaves %+v, want empty", q)
	}

	long := Packet{Kind: WriteReq}
	if !q.CanAccept(long.Words(), 1) {
		t.Fatal("empty one-word line refuses a two-word packet")
	}
	q.Push(&long)
	if q.CanAccept(ReadReq.WireWords(), 1) {
		t.Fatal("one-word line holding an oversized packet accepts another")
	}
}

// TestOmegaEgressHoldsItsWords fills one egress port that nobody polls:
// its queue stops at EgressWords one-word packets, distinct from the
// stage lines' 2×QueueWords, and the rest wait upstream until Poll frees
// room.
func TestOmegaEgressHoldsItsWords(t *testing.T) {
	const egressWords = 3
	o := NewOmega(OmegaConfig{Name: "fwd", Ports: 8, Radix: 8, QueueWords: 2, EgressWords: egressWords})
	pkts := make([]Packet, 8)
	for src := range pkts {
		pkts[src] = Packet{Kind: ReadReq, Src: src, Dst: 5}
		if !o.Offer(&pkts[src]) {
			t.Fatalf("Offer from port %d refused", src)
		}
	}
	c := int64(0)
	for ; c < 20; c++ {
		o.Tick(c)
	}
	assertOccupancy(t, o)
	if n := queueLen(t, &o.egress[5]); n != egressWords {
		t.Fatalf("unpolled egress holds %d packets, want %d", n, egressWords)
	}
	got := 0
	for ; got < len(pkts) && c < 100; c++ {
		o.Tick(c)
		for o.Poll(5) != nil {
			got++
		}
	}
	if got != len(pkts) {
		t.Fatalf("delivered %d packets, want %d", got, len(pkts))
	}
}

// TestPacketPoolThreadsItsFreelist pins the pool's link discipline and
// cost: Get hands out unlinked packets even when the freelist links them,
// Put reuses last-in first-out, and a refill is one object — the slab —
// so three refills (4, 4, then 8 packets) cost three. The slab's bytes
// are nine words per packet on a 64-bit host.
func TestPacketPoolThreadsItsFreelist(t *testing.T) {
	var pool PacketPool
	a, b := pool.Get(), pool.Get()
	pool.Put(a)
	pool.Put(b)
	if p := pool.Get(); p != b || p.next != nil {
		t.Fatalf("Get returned %p (next %v), want the last Put %p unlinked", p, p.next, b)
	}
	if p := pool.Get(); p != a || p.next != nil {
		t.Fatalf("Get returned %p (next %v), want %p unlinked", p, p.next, a)
	}

	allocs := testing.AllocsPerRun(10, func() {
		pool = PacketPool{}
		for i := 0; i < 16; i++ {
			if pool.Get().next != nil {
				t.Fatal("Get returned a linked packet")
			}
		}
	})
	if allocs != 3 {
		t.Errorf("16 packets from an empty pool cost %.0f objects, want 3 (one per refill)", allocs)
	}
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Packet{}) != 72 {
		t.Errorf("Packet is %d bytes, want 72: its one-byte fields and Tag share a word", unsafe.Sizeof(Packet{}))
	}
}

// TestSlabCarvesZeroedRegions pins the slab's four properties. Every take
// is zeroed, although every word taken before it was written. A take's
// cap is its len, so an append to it reallocates instead of reaching the
// next region. k equal takes cost 1 + log2(k) chunks when k is a power of
// two: eight cost four, holding one, one, two and four takes. A take
// larger than the chunk's remainder gets a fresh chunk as large as every
// chunk made so far: after chunks of n, n and 2n, a take of n+1 misses the
// n words left and opens a chunk of 4n, which holds the 3n-1 after it.
func TestSlabCarvesZeroedRegions(t *testing.T) {
	const n = 32
	var s Slab[int64]
	var taken [][]int64
	for i := 0; i < 8; i++ {
		r := s.Take(n)
		if cap(r) != len(r) || slices.ContainsFunc(r, func(v int64) bool { return v != 0 }) {
			t.Fatalf("take %d: len %d, cap %d, words %v; want a zeroed region with cap == len", i, len(r), cap(r), r)
		}
		for j := range r {
			r[j] = int64(i + 1)
		}
		_ = append(r, -1) // must not write the next region
		taken = append(taken, r)
	}
	for i, r := range taken {
		if slices.ContainsFunc(r, func(v int64) bool { return v != int64(i+1) }) {
			t.Fatalf("take %d holds %v: regions overlap", i, r)
		}
	}
	for _, takes := range [][]int{{n, n, n, n, n, n, n, n}, {n, n, n, n + 1, 3*n - 1}} {
		if chunks := testing.AllocsPerRun(10, func() {
			s = Slab[int64]{}
			for _, k := range takes {
				s.Take(k)
			}
		}); chunks != 4 {
			t.Errorf("takes %v cost %.0f objects, want 4 chunks", takes, chunks)
		}
	}
}

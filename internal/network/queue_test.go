package network

import (
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

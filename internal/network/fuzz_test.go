package network

import "testing"

// FuzzOmegaRouting drives both fabrics with attacker-chosen traffic and
// checks the invariants that every other component depends on: packets
// are delivered exactly once, at their destination, in per-pair order,
// and the fabric drains to idle — with every queue a well-formed list
// and, on the omega, the occupancy bits and counts the tick is driven by
// agreeing with the queues after every cycle. The packets come from one
// PacketPool and go back to it on delivery or refusal, so recycled
// packets cross both fabrics' queues and the pool's freelist, where a
// stale link would corrupt a list.
func FuzzOmegaRouting(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(2))
	f.Add([]byte{63, 63, 63, 0, 0, 0}, uint8(1))
	f.Add([]byte{7, 56, 9, 41, 3, 3, 3, 3}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, qw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		queueWords := int(qw%8) + 1
		var pool PacketPool
		for _, fab := range []Fabric{
			NewOmega(OmegaConfig{Name: "fuzz", Ports: 64, Radix: 8, QueueWords: queueWords}),
			NewCrossbar("fuzz", 64, 2),
		} {
			routeAll(t, fab, &pool, raw)
		}
	})
}

// routeAll offers one packet per byte pair of raw to fab, polls every
// port each cycle and checks delivery, order and conservation.
func routeAll(t *testing.T, fab Fabric, pool *PacketPool, raw []byte) {
	type key struct{ src, dst int }
	lastTag := map[key]int{}
	want := len(raw) / 2
	sent, recv := 0, 0
	cycle := int64(0)
	poll := func() {
		for p := 0; p < 64; p++ {
			for pkt := fab.Poll(p); pkt != nil; pkt = fab.Poll(p) {
				if pkt.Dst != p {
					t.Fatalf("%T: misdelivered %v at %d", fab, pkt, p)
				}
				k := key{int(pkt.Addr >> 32), pkt.Dst}
				if prev, ok := lastTag[k]; ok && int(pkt.Tag) < prev {
					t.Fatalf("%T: pair %v out of order: %d after %d", fab, k, pkt.Tag, prev)
				}
				lastTag[k] = int(pkt.Tag)
				recv++
				pool.Put(pkt)
			}
		}
	}
	for recv < want {
		if sent < want {
			src := int(raw[2*sent]) % 64
			dst := int(raw[2*sent+1]) % 64
			pkt := pool.Get()
			pkt.Kind, pkt.Src, pkt.Dst = ReadReq, src, dst
			if raw[2*sent]%3 == 0 {
				pkt.Kind = WriteReq
			}
			pkt.Tag, pkt.Addr = uint32(sent), uint64(src)<<32|uint64(dst)
			if fab.Offer(pkt) {
				sent++
			} else {
				pool.Put(pkt)
			}
		}
		fab.Tick(cycle)
		assertQueues(t, fab)
		poll()
		cycle++
		if cycle > 1_000_000 {
			t.Fatalf("%T: stalled at sent=%d recv=%d", fab, sent, recv)
		}
	}
	for !fab.Idle() {
		fab.Tick(cycle)
		assertQueues(t, fab)
		poll()
		cycle++
		if cycle > 2_000_000 {
			t.Fatalf("%T: drain stalled", fab)
		}
	}
	if recv != sent {
		t.Fatalf("%T: conservation: sent %d recv %d", fab, sent, recv)
	}
}

// assertQueues checks a fabric's queues: assertOccupancy on the omega;
// on the crossbar, every egress list well formed and holding, with the
// transit heap, every packet in flight.
func assertQueues(t *testing.T, fab Fabric) {
	t.Helper()
	switch f := fab.(type) {
	case *Omega:
		assertOccupancy(t, f)
	case *Crossbar:
		n := len(f.pending)
		for p := range f.egress {
			n += queueLen(t, &f.egress[p])
		}
		if n != f.inflight {
			t.Fatalf("crossbar inflight = %d, heap and egress hold %d", f.inflight, n)
		}
	}
}

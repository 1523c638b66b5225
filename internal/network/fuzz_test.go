package network

import "testing"

// FuzzOmegaRouting drives the fabric with attacker-chosen traffic and
// checks the invariants that every other component depends on: packets
// are delivered exactly once, at their destination, in per-pair order,
// and the fabric drains to idle — with the occupancy bits and counts the
// tick is driven by agreeing with the queues after every cycle.
func FuzzOmegaRouting(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(2))
	f.Add([]byte{63, 63, 63, 0, 0, 0}, uint8(1))
	f.Add([]byte{7, 56, 9, 41, 3, 3, 3, 3}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, qw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		queueWords := int(qw%8) + 1
		o := NewOmega(OmegaConfig{Name: "fuzz", Ports: 64, Radix: 8, QueueWords: queueWords})

		type key struct{ src, dst int }
		lastTag := map[key]int{}
		want := len(raw) / 2
		sent, recv := 0, 0
		cycle := int64(0)
		for recv < want {
			if sent < want {
				src := int(raw[2*sent]) % 64
				dst := int(raw[2*sent+1]) % 64
				kind := ReadReq
				if raw[2*sent]%3 == 0 {
					kind = WriteReq
				}
				if o.Offer(&Packet{Kind: kind, Src: src, Dst: dst,
					Tag: uint32(sent), Addr: uint64(src)<<32 | uint64(dst)}) {
					sent++
				}
			}
			o.Tick(cycle)
			assertOccupancy(t, o)
			for p := 0; p < 64; p++ {
				for {
					pkt := o.Poll(p)
					if pkt == nil {
						break
					}
					if pkt.Dst != p {
						t.Fatalf("misdelivered %v at %d", pkt, p)
					}
					src := int(pkt.Addr >> 32)
					k := key{src, pkt.Dst}
					if prev, ok := lastTag[k]; ok && int(pkt.Tag) < prev {
						t.Fatalf("pair %v out of order: %d after %d", k, pkt.Tag, prev)
					}
					lastTag[k] = int(pkt.Tag)
					recv++
				}
			}
			cycle++
			if cycle > 1_000_000 {
				t.Fatalf("stalled at sent=%d recv=%d", sent, recv)
			}
		}
		for !o.Idle() {
			o.Tick(cycle)
			assertOccupancy(t, o)
			for p := 0; p < 64; p++ {
				for o.Poll(p) != nil {
					recv++
				}
			}
			cycle++
			if cycle > 2_000_000 {
				t.Fatal("drain stalled")
			}
		}
		if recv != sent {
			t.Fatalf("conservation: sent %d recv %d", sent, recv)
		}
	})
}

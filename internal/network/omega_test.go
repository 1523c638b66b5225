package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cedarOmega(name string) *Omega {
	return NewOmega(OmegaConfig{Name: name, Ports: 64, Radix: 8, QueueWords: 2})
}

// drain ticks the fabric until idle, collecting delivered packets per port.
func drain(t *testing.T, f Fabric, start int64, limit int) map[int][]*Packet {
	t.Helper()
	got := make(map[int][]*Packet)
	cycle := start
	for i := 0; i < limit && !f.Idle(); i++ {
		f.Tick(cycle)
		for p := 0; p < f.Ports(); p++ {
			for {
				pkt := f.Poll(p)
				if pkt == nil {
					break
				}
				got[p] = append(got[p], pkt)
			}
		}
		cycle++
	}
	if !f.Idle() {
		t.Fatalf("%s not idle after %d cycles", f.Name(), limit)
	}
	return got
}

func TestOmegaRoutesEveryPair(t *testing.T) {
	// Every (src, dst) pair must deliver to exactly dst: the tag-routing
	// invariant of the shuffle-exchange wiring.
	for src := 0; src < 64; src++ {
		o := cedarOmega("fwd")
		for dst := 0; dst < 64; dst++ {
			p := &Packet{Kind: ReadReq, Src: src, Dst: dst, Tag: uint32(dst)}
			if !o.Offer(p) {
				// Back-pressure: drain and retry.
				got := drain(t, o, 100, 10000)
				checkDelivery(t, got)
				if !o.Offer(p) {
					t.Fatalf("offer failed on empty fabric src=%d dst=%d", src, dst)
				}
			}
		}
		got := drain(t, o, 1000, 100000)
		checkDelivery(t, got)
	}
}

func checkDelivery(t *testing.T, got map[int][]*Packet) {
	t.Helper()
	for port, pkts := range got {
		for _, p := range pkts {
			if p.Dst != port {
				t.Fatalf("packet %v delivered at port %d", p, port)
			}
			if int(p.Tag) != port {
				t.Fatalf("tag %d delivered at port %d", p.Tag, port)
			}
		}
	}
}

func TestOmegaUniquePathLatency(t *testing.T) {
	// Unloaded, one packet takes exactly stages+1 cycles from Offer to
	// Poll readiness: one hop per stage plus egress availability.
	o := cedarOmega("fwd")
	p := &Packet{Kind: ReadReq, Src: 5, Dst: 40}
	if !o.Offer(p) {
		t.Fatal("offer refused on empty fabric")
	}
	cycle := int64(0)
	for ; cycle < 100; cycle++ {
		o.Tick(cycle)
		if got := o.Poll(40); got != nil {
			break
		}
	}
	// Offered before cycle 0: stage0 hop at 0, stage1 hop at 1, pollable
	// after tick at cycle 2 (readyAt = 2).
	if cycle != 2 {
		t.Fatalf("delivery at cycle %d, want 2 (stages=2)", cycle)
	}
}

func TestOmegaConservation(t *testing.T) {
	// Randomized conservation: every accepted packet is delivered exactly
	// once, at its destination, regardless of congestion.
	rng := rand.New(rand.NewSource(42))
	o := cedarOmega("fwd")
	offered := 0
	delivered := make(map[int]int)
	cycle := int64(0)
	want := 5000
	for offered < want {
		// Bursty injection from random sources.
		for i := 0; i < 8; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(64)
			kind := ReadReq
			if rng.Intn(4) == 0 {
				kind = WriteReq
			}
			if o.Offer(&Packet{Kind: kind, Src: src, Dst: dst}) {
				offered++
			}
		}
		o.Tick(cycle)
		for p := 0; p < 64; p++ {
			for {
				pkt := o.Poll(p)
				if pkt == nil {
					break
				}
				if pkt.Dst != p {
					t.Fatalf("misdelivered: %v at %d", pkt, p)
				}
				delivered[p]++
			}
		}
		cycle++
	}
	for !o.Idle() {
		o.Tick(cycle)
		for p := 0; p < 64; p++ {
			for o.Poll(p) != nil {
				delivered[p]++
			}
		}
		cycle++
		if cycle > 1_000_000 {
			t.Fatal("drain did not complete")
		}
	}
	total := 0
	for _, n := range delivered {
		total += n
	}
	if total != offered {
		t.Fatalf("delivered %d, offered %d", total, offered)
	}
	st := o.Stats()
	if st.Offered != int64(offered) || st.Delivered != int64(total) {
		t.Errorf("stats mismatch: %+v vs offered=%d delivered=%d", st, offered, total)
	}
}

func TestOmegaFIFOPerPair(t *testing.T) {
	// Packets between the same (src, dst) pair must stay in order: there
	// is a unique path and queues are FIFOs.
	o := cedarOmega("fwd")
	const n = 200
	sent := 0
	var got []uint32
	cycle := int64(0)
	for sent < n || !o.Idle() {
		if sent < n {
			if o.Offer(&Packet{Kind: ReadReq, Src: 3, Dst: 17, Tag: uint32(sent)}) {
				sent++
			}
		}
		o.Tick(cycle)
		for {
			p := o.Poll(17)
			if p == nil {
				break
			}
			got = append(got, p.Tag)
		}
		cycle++
		if cycle > 100000 {
			t.Fatal("stalled")
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, tag := range got {
		if tag != uint32(i) {
			t.Fatalf("out of order: position %d has tag %d", i, tag)
		}
	}
}

func TestOmegaSinglePortBandwidth(t *testing.T) {
	// A single src→dst stream of 1-word packets sustains 1 packet/cycle.
	o := cedarOmega("fwd")
	const n = 1000
	sent, recv := 0, 0
	var first, last int64
	cycle := int64(0)
	for recv < n {
		if sent < n && o.Offer(&Packet{Kind: ReadReq, Src: 0, Dst: 0}) {
			sent++
		}
		o.Tick(cycle)
		for o.Poll(0) != nil {
			if recv == 0 {
				first = cycle
			}
			last = cycle
			recv++
		}
		cycle++
		if cycle > 100000 {
			t.Fatal("stalled")
		}
	}
	perPacket := float64(last-first) / float64(n-1)
	if perPacket > 1.05 {
		t.Errorf("single-stream throughput %.3f cycles/packet, want ≈1", perPacket)
	}
}

func TestOmegaWritePacketsHalveThroughput(t *testing.T) {
	// 2-word WriteReq packets occupy links for two cycles each.
	o := cedarOmega("fwd")
	const n = 500
	sent, recv := 0, 0
	var first, last int64
	cycle := int64(0)
	for recv < n {
		if sent < n && o.Offer(&Packet{Kind: WriteReq, Src: 0, Dst: 0}) {
			sent++
		}
		o.Tick(cycle)
		for o.Poll(0) != nil {
			if recv == 0 {
				first = cycle
			}
			last = cycle
			recv++
		}
		cycle++
		if cycle > 100000 {
			t.Fatal("stalled")
		}
	}
	perPacket := float64(last-first) / float64(n-1)
	if perPacket < 1.9 || perPacket > 2.1 {
		t.Errorf("write throughput %.3f cycles/packet, want ≈2", perPacket)
	}
}

func TestOmegaHotSpotContention(t *testing.T) {
	// 8 sources hammering one destination share the single egress link:
	// aggregate ≈1 packet/cycle, so each source gets ≈1/8.
	o := cedarOmega("fwd")
	const n = 800
	sent := make([]int, 8)
	recv := 0
	cycle := int64(0)
	for recv < n {
		for s := 0; s < 8; s++ {
			if sent[s] < n/8 && o.Offer(&Packet{Kind: ReadReq, Src: s * 8, Dst: 9}) {
				sent[s]++
			}
		}
		o.Tick(cycle)
		for o.Poll(9) != nil {
			recv++
		}
		cycle++
		if cycle > 100000 {
			t.Fatal("stalled")
		}
	}
	if cycle < n-10 {
		t.Errorf("hot spot drained in %d cycles; %d packets cannot beat 1/cycle", cycle, n)
	}
	if cycle > n*13/10 {
		t.Errorf("hot spot took %d cycles for %d packets; egress link underutilized", cycle, n)
	}
}

func TestOmegaRoundRobinFairness(t *testing.T) {
	// Two sources that collide at a first-stage switch should receive
	// roughly equal service, not starve one another.
	o := cedarOmega("fwd")
	// Sources 0 and 1 are on the same stage-0 switch after shuffling?
	// Regardless of placement, both target dst 0 so they conflict at the
	// final output; round-robin must alternate them.
	counts := map[int]int{}
	sent := map[int]int{}
	cycle := int64(0)
	const per = 300
	for counts[0]+counts[1] < 2*per {
		for _, s := range []int{0, 1} {
			if sent[s] < per && o.Offer(&Packet{Kind: ReadReq, Src: s, Dst: 0, Tag: uint32(s)}) {
				sent[s]++
			}
		}
		o.Tick(cycle)
		for {
			p := o.Poll(0)
			if p == nil {
				break
			}
			counts[int(p.Tag)]++
		}
		cycle++
		if cycle > 100000 {
			t.Fatal("stalled")
		}
	}
	if counts[0] != per || counts[1] != per {
		t.Fatalf("delivered %v, want %d each", counts, per)
	}
}

func TestShuffleIsPermutationProperty(t *testing.T) {
	o := cedarOmega("fwd")
	seen := make([]bool, 64)
	for p := 0; p < 64; p++ {
		s := int(o.shuf[p].line)
		if s < 0 || s >= 64 {
			t.Fatalf("shuffle(%d) = %d out of range", p, s)
		}
		if seen[s] {
			t.Fatalf("shuffle not injective at %d", p)
		}
		seen[s] = true
	}
	// Digit rotation property: shuffling `stages` times is the identity.
	f := func(v uint8) bool {
		p := int(v) % 64
		s := p
		for i := 0; i < o.stages; i++ {
			s = int(o.shuf[s].line)
		}
		return s == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOmegaOfferPanicsOnBadPort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for out-of-range port")
		}
	}()
	cedarOmega("fwd").Offer(&Packet{Src: 99, Dst: 0})
}

func TestNewOmegaRejectsBadConfig(t *testing.T) {
	cases := []OmegaConfig{
		{Ports: 48, Radix: 8, QueueWords: 2},
		{Ports: 64, Radix: 1, QueueWords: 2},
		{Ports: 1, Radix: 8, QueueWords: 2},
		{Ports: 64, Radix: 8, QueueWords: 0},
	}
	for _, cfg := range cases {
		func() {
			defer func() { recover() }()
			NewOmega(cfg)
			t.Errorf("NewOmega(%+v) did not panic", cfg)
		}()
	}
}

func TestKindProperties(t *testing.T) {
	if ReadReq.WireWords() != 1 || WriteReq.WireWords() != 2 || SyncReq.WireWords() != 2 {
		t.Error("request wire lengths wrong")
	}
	if ReadReply.WireWords() != 1 || SyncReply.WireWords() != 1 || WriteAck.WireWords() != 1 {
		t.Error("reply wire lengths wrong")
	}
}

func TestTestOpEval(t *testing.T) {
	cases := []struct {
		op     TestOp
		v, arg int64
		want   bool
	}{
		{TestAlways, 0, 0, true},
		{TestEQ, 5, 5, true}, {TestEQ, 5, 6, false},
		{TestNE, 5, 6, true}, {TestNE, 5, 5, false},
		{TestLT, 4, 5, true}, {TestLT, 5, 5, false},
		{TestLE, 5, 5, true}, {TestLE, 6, 5, false},
		{TestGT, 6, 5, true}, {TestGT, 5, 5, false},
		{TestGE, 5, 5, true}, {TestGE, 4, 5, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.v, c.arg); got != c.want {
			t.Errorf("op %d Eval(%d,%d) = %v, want %v", c.op, c.v, c.arg, got, c.want)
		}
	}
}

func TestMutOpApply(t *testing.T) {
	cases := []struct {
		op     MutOp
		v, arg int64
		want   int64
	}{
		{OpNone, 7, 3, 7}, {OpRead, 7, 3, 7}, {OpWrite, 7, 3, 3},
		{OpAdd, 7, 3, 10}, {OpSub, 7, 3, 4},
		{OpAnd, 6, 3, 2}, {OpOr, 6, 3, 7}, {OpXor, 6, 3, 5},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.v, c.arg); got != c.want {
			t.Errorf("op %d Apply(%d,%d) = %d, want %d", c.op, c.v, c.arg, got, c.want)
		}
	}
}

// TestRoutingTablesMatchFormulas pins the tables NewOmega precomputes to
// the definitions they replaced — shuffle as a base-k digit rotation
// computed with % and /, the routing digit extracted by repeated division
// — for every (port, stage) at radix 2, 3, 4, 8 and 16, including the
// 64-port paper fabric and the 512-port fabric of the Cedar16/Cedar64
// presets, and the occupancy bit of every shuffled line to its switch
// field (input i of switch sw at bit sw·occBits + i).
func TestRoutingTablesMatchFormulas(t *testing.T) {
	shuffle := func(line, radix, ports int) int {
		v := line * radix
		return v%ports + v/ports
	}
	digit := func(v, i, radix int) int {
		for ; i > 0; i-- {
			v /= radix
		}
		return v % radix
	}
	for _, g := range []struct{ radix, ports int }{
		{2, 2}, {2, 64}, {3, 27}, {4, 16}, {4, 256}, {8, 8}, {8, 64}, {8, 512}, {16, 256},
	} {
		o := NewOmega(OmegaConfig{Name: "tab", Ports: g.ports, Radix: g.radix, QueueWords: 2})
		for p := 0; p < g.ports; p++ {
			line := shuffle(p, g.radix, g.ports)
			if want := (wire{line: int32(line), bit: int32(line/g.radix*occBits + line%g.radix)}); o.shuf[p] != want {
				t.Fatalf("radix %d ports %d: shuf[%d] = %+v, want %+v", g.radix, g.ports, p, o.shuf[p], want)
			}
			for st := 0; st < o.stages; st++ {
				got := int(o.st[st].digit[p])
				if want := digit(p, o.stages-1-st, g.radix); got != want {
					t.Fatalf("radix %d ports %d: stage %d routes dst %d to output %d, want %d",
						g.radix, g.ports, st, p, got, want)
				}
			}
		}
	}
}

// TestSteadyStateAllocsOmega is the runtime allocation gate on both
// fabrics: Offer/Tick/Poll under uniform traffic with pooled packets must
// not allocate once the pool and the fabric's work lists have filled.
func TestSteadyStateAllocsOmega(t *testing.T) {
	for _, f := range []Fabric{cedarOmega("fwd"), NewCrossbar("fwd", 64, 3)} {
		var pool PacketPool
		cycle, dst := int64(0), 0
		drive := func() {
			for n := 0; n < 200; n++ {
				for src := 0; src < 64; src += 2 {
					dst = (dst*5 + 7) % 64 // full-period walk over the ports
					p := pool.Get()
					p.Kind, p.Src, p.Dst = ReadReq, src, dst
					if !f.Offer(p) {
						pool.Put(p)
					}
				}
				f.Tick(cycle)
				cycle++
				for port := 0; port < 64; port++ {
					for p := f.Poll(port); p != nil; p = f.Poll(port) {
						pool.Put(p)
					}
				}
			}
		}
		drive()
		if avg := testing.AllocsPerRun(10, drive); avg != 0 {
			t.Errorf("%T allocates %.1f times per 200 cycles of uniform traffic, want 0", f, avg)
		}
	}
}

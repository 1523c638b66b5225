package network

import (
	"fmt"
	"math/rand"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// arbiter is what the differential tests and the tick benchmarks need of
// an omega: the production fabric and the scan reference both have it.
type arbiter interface {
	Offer(p *Packet) bool
	Tick(cycle int64)
	Poll(port int) *Packet
	Stats() Stats
}

// omegaGeometries is the table the occupancy arbiter must hold on: both
// Cedar fabrics (8/64, 8/512), the extremes of the radix range, and a
// radix that divides neither 64 nor a switch field evenly.
var omegaGeometries = []struct{ radix, ports int }{
	{2, 64}, {3, 27}, {4, 256}, {8, 64}, {8, 512}, {16, 256},
}

// assertOccupancy checks the invariants the occupancy-driven tick rests
// on: a stage's occupancy bit is set exactly while the line's queue is
// non-empty (and no other bit ever is), its count is the sum of its queue
// lengths, and inflight is everything queued in the stages and at egress.
func assertOccupancy(t testing.TB, o *Omega) {
	t.Helper()
	total := 0
	for ti := range o.st {
		st := &o.st[ti]
		want := make([]uint64, len(st.occ))
		n := 0
		for l := range st.in {
			n += st.in[l].len()
			if !st.in[l].empty() {
				bit := l/o.radix<<occShift + l%o.radix
				want[bit>>6] |= 1 << (bit & 63)
			}
		}
		for w := range want {
			if st.occ[w] != want[w] {
				t.Fatalf("stage %d occupancy word %d = %#x, queues say %#x", ti, w, st.occ[w], want[w])
			}
		}
		if st.count != n {
			t.Fatalf("stage %d count = %d, queues hold %d", ti, st.count, n)
		}
		total += n
	}
	for p := range o.egress {
		total += o.egress[p].len()
	}
	if o.inflight != total {
		t.Fatalf("inflight = %d, stages and egress hold %d", o.inflight, total)
	}
}

// wirePlan jams and drops on every stage of the fabric under test (which
// must be named "fwd": plans address the machine's two fabrics by name).
func wirePlan() *fault.Plan {
	return &fault.Plan{Seed: 17, Faults: []fault.Fault{
		{Kind: fault.StageJam, Fabric: "fwd", Stage: -1, Line: -1, Rate: 0.08},
		{Kind: fault.StageJam, Fabric: "fwd", Stage: 0, Line: 1, Rate: 1, From: 40, Until: 90},
		{Kind: fault.LinkDrop, Fabric: "fwd", Stage: -1, Line: -1, Rate: 0.05},
	}}
}

// TestOccupancyArbiterMatchesScan drives the production omega and the scan
// reference with the same seeded traffic — one- and two-word packets,
// droppable prefetch reads among them, egress ports polled only some of
// the time so back-pressure reaches every stage, bursts separated by idle
// gaps — under the same jam-and-drop plan, and requires, every cycle, the
// same accepted offers, the same (port, packet) deliveries in the same
// order, the same Stats and the same injections in the same order. The
// injector's draws are pure functions of (wire, cycle), so the fired
// events and counts are everything a call sequence can show. It runs on
// six geometries, and assertOccupancy checks the production omega after
// every Tick.
func TestOccupancyArbiterMatchesScan(t *testing.T) {
	for _, g := range omegaGeometries {
		g := g
		t.Run(fmt.Sprintf("radix%d-ports%d", g.radix, g.ports), func(t *testing.T) {
			cfg := OmegaConfig{Name: "fwd", Ports: g.ports, Radix: g.radix, QueueWords: 2}
			o, ref := NewOmega(cfg), newScanOmega(cfg)
			hubO, hubR := scope.NewHub(), scope.NewHub()
			injector := func(hub *scope.Hub) *fault.Injector {
				inj, err := fault.NewInjector(params.Default(), wirePlan())
				if err != nil {
					t.Fatal(err)
				}
				inj.SetScope(hub)
				return inj
			}
			o.SetFaults(injector(hubO))
			ref.inj = injector(hubR)
			rng := rand.New(rand.NewSource(int64(g.radix*1000 + g.ports)))
			var tag uint32
			seen := 0 // injections compared so far
			for c := int64(0); c < 1500; c++ {
				// 200-cycle bursts, every third one followed by silence long
				// enough for the fabric to drain and sit empty.
				if c/200%3 != 2 {
					for n := rng.Intn(g.ports/2 + 1); n > 0; n-- {
						pk := Packet{Kind: ReadReq, Src: rng.Intn(g.ports), Dst: rng.Intn(g.ports), Tag: tag}
						switch rng.Intn(4) {
						case 0:
							pk.Kind = WriteReq
						case 1:
							pk.Tag |= PrefetchTagBit
						}
						tag++
						a, b := pk, pk
						if got, want := o.Offer(&a), ref.Offer(&b); got != want {
							t.Fatalf("cycle %d: Offer(%v) = %v, scan reference %v", c, &pk, got, want)
						}
					}
				}
				o.Tick(c)
				ref.Tick(c)
				assertOccupancy(t, o)
				for port := 0; port < g.ports; port++ {
					for n := rng.Intn(3); n > 0; n-- { // 0, 1 or 2 polls: a slow sink
						got, want := o.Poll(port), ref.Poll(port)
						if (got == nil) != (want == nil) ||
							got != nil && (got.Src != want.Src || got.Dst != want.Dst || got.Tag != want.Tag || got.Kind != want.Kind) {
							t.Fatalf("cycle %d port %d: delivered %v, scan reference %v", c, port, got, want)
						}
					}
				}
				if o.Stats() != ref.Stats() {
					t.Fatalf("cycle %d: stats %+v, scan reference %+v", c, o.Stats(), ref.Stats())
				}
				so, sr := hubO.Spans(), hubR.Spans()
				if len(so) != len(sr) {
					t.Fatalf("cycle %d: %d injections, scan reference %d", c, len(so), len(sr))
				}
				for ; seen < len(so); seen++ {
					if so[seen] != sr[seen] {
						t.Fatalf("cycle %d: injection %d is %+v, scan reference %+v", c, seen, so[seen], sr[seen])
					}
				}
			}
			st := o.Stats()
			if st.Refused == 0 || st.Delivered == 0 || seen == 0 {
				t.Errorf("the traffic never refused, delivered or faulted (stats %+v, %d injections): the comparison is vacuous", st, seen)
			}
			if o.inj.Stats() != ref.inj.Stats() {
				t.Errorf("injector stats %+v, scan reference %+v", o.inj.Stats(), ref.inj.Stats())
			}
		})
	}
}

// tickLoad is one traffic scenario on the 64-port paper fabric, shared by
// BenchmarkOmegaTick and the head-count comparison: offer is called once
// per cycle with the number of packets in flight and a function that
// injects one read request.
type tickLoad struct {
	name  string
	offer func(c int64, inflight int, rng *rand.Rand, send func(src, dst int))
}

// sparse4 keeps at most four packets anywhere in the fabric: what the
// Perfect proxies keep in flight, and the load the occupancy bits are for.
var sparse4 = tickLoad{"sparse4", func(_ int64, inflight int, rng *rand.Rand, send func(int, int)) {
	if inflight < 4 {
		send(rng.Intn(64), rng.Intn(64))
	}
}}

var tickLoads = []tickLoad{
	{"idle", func(int64, int, *rand.Rand, func(int, int)) {}},
	sparse4,
	// Every port offers every other cycle: cedarperf's half-load rig.
	{"uniform", func(c int64, _ int, rng *rand.Rand, send func(int, int)) {
		for src := int(c & 1); src < 64; src += 2 {
			send(src, rng.Intn(64))
		}
	}},
	// Every port at one module: tree saturation behind a single egress.
	{"hotspot", func(_ int64, _ int, _ *rand.Rand, send func(int, int)) {
		for src := 0; src < 64; src++ {
			send(src, 9)
		}
	}},
}

// driveLoad runs a scenario for the given cycles from clock c0, polling
// every egress port dry each cycle with pooled packets, and returns the
// clock it reached.
func driveLoad(f arbiter, ld tickLoad, rng *rand.Rand, pool *PacketPool, c0, cycles int64) int64 {
	send := func(src, dst int) {
		p := pool.Get()
		p.Kind, p.Src, p.Dst = ReadReq, src, dst
		if !f.Offer(p) {
			pool.Put(p)
		}
	}
	c := c0
	for ; c < c0+cycles; c++ {
		st := f.Stats()
		ld.offer(c, int(st.Offered-st.Delivered), rng, send)
		f.Tick(c)
		for port := 0; port < 64; port++ {
			for p := f.Poll(port); p != nil; p = f.Poll(port) {
				pool.Put(p)
			}
		}
	}
	return c
}

// TestSparseLoadInspectsFewHeads states the occupancy arbiter's win in
// counts: on sparse4 it reads at most half the queue heads the scan reads
// for the same hops (the scan reads all eight inputs of every switch that
// holds a packet; the occupancy bits name the non-empty ones).
func TestSparseLoadInspectsFewHeads(t *testing.T) {
	ld := sparse4
	o, ref := cedarOmega("fwd"), newScanOmega(OmegaConfig{Name: "fwd", Ports: 64, Radix: 8, QueueWords: 2})
	var po, pr PacketPool
	driveLoad(o, ld, rand.New(rand.NewSource(4)), &po, 0, 5000)
	driveLoad(ref, ld, rand.New(rand.NewSource(4)), &pr, 0, 5000)
	if o.Stats() != ref.Stats() || o.Stats().WordHops == 0 {
		t.Fatalf("stats %+v, scan reference %+v", o.Stats(), ref.Stats())
	}
	hops := float64(o.Stats().WordHops)
	t.Logf("%s: %.0f hops; heads inspected: occupancy %d (%.2f/hop), scan %d (%.2f/hop)",
		ld.name, hops, o.heads, float64(o.heads)/hops, ref.heads, float64(ref.heads)/hops)
	if 2*o.heads > ref.heads {
		t.Errorf("occupancy arbiter inspected %d heads, more than half the scan's %d", o.heads, ref.heads)
	}
}

// BenchmarkOmegaTick prices one cycle of Offer/Tick/Poll on the paper
// fabric under each scenario, and reports the arbitration work behind the
// time: queue heads inspected per packet hop (read requests are one word,
// so WordHops counts hops).
func BenchmarkOmegaTick(b *testing.B) {
	for _, ld := range tickLoads {
		b.Run(ld.name, func(b *testing.B) {
			o := cedarOmega("fwd")
			rng := rand.New(rand.NewSource(4))
			var pool PacketPool
			c := driveLoad(o, ld, rng, &pool, 0, 500) // warm the pool and the work lists
			heads, hops := o.heads, o.stats.WordHops
			b.ReportAllocs()
			b.ResetTimer()
			driveLoad(o, ld, rng, &pool, c, int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			if hops = o.stats.WordHops - hops; hops > 0 {
				b.ReportMetric(float64(o.heads-heads)/float64(hops), "heads/hop")
			}
		})
	}
}

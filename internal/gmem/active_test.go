package gmem

import (
	"fmt"
	"testing"

	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// everyModule is the memory as it ticked before the active set: every
// module visited every tick and consulted in every NextWakeup. It is the
// same Memory with every module forced into the set before each call, so
// the reference and the production path share tickModule and differ only
// in which modules reach it.
type everyModule struct{ m *Memory }

func (e everyModule) Name() string { return "gmem" }
func (e everyModule) Idle() bool   { return scanInFlight(e.m) == 0 }

func (e everyModule) all() {
	for i := range e.m.mods {
		e.m.active[i>>6] |= 1 << (i & 63)
	}
}

func (e everyModule) Tick(cycle int64) {
	e.all()
	e.m.Tick(cycle)
}

func (e everyModule) NextWakeup(now int64) int64 {
	e.all()
	return e.m.NextWakeup(now)
}

// scanInFlight is InFlight by the full scan over the modules.
func scanInFlight(m *Memory) int {
	n := 0
	for i := range m.mods {
		n += len(m.mods[i].pipe) + len(m.mods[i].out)
	}
	return n
}

// send is one scripted request: not offered before cycle at.
type send struct {
	at  int64
	pkt network.Packet
}

// reply is what the script driver logs per reply, in arrival order.
type reply struct {
	cycle int64
	port  int
	kind  network.Kind
	tag   uint32
	value int64
	pass  bool
}

// scriptDriver plays a per-port script of requests in port order (no map
// iteration: two drivers given the same script behave identically) and
// logs every reply. It is a plain component, so the engine executes every
// cycle but still skips the sleeping memory's ticks.
type scriptDriver struct {
	fwd, rev network.Fabric
	todo     [][]send // per source port, in issue order
	awaited  int
	log      []reply
}

func (d *scriptDriver) Name() string { return "driver" }

func (d *scriptDriver) Idle() bool {
	for _, q := range d.todo {
		if len(q) > 0 {
			return false
		}
	}
	return d.awaited == 0
}

func (d *scriptDriver) Tick(cycle int64) {
	for port := range d.todo {
		for p := d.rev.Poll(port); p != nil; p = d.rev.Poll(port) {
			d.log = append(d.log, reply{cycle, port, p.Kind, p.Tag, p.Value, p.TestPassed})
			d.awaited--
		}
		if q := d.todo[port]; len(q) > 0 && q[0].at <= cycle {
			pkt := q[0].pkt
			pkt.Issue = cycle
			if d.fwd.Offer(&pkt) {
				d.todo[port] = q[1:]
				d.awaited++
			}
		}
	}
}

// diffRig is driver → fwd → memory → rev in the machine's tick order.
// reference registers the everyModule wrapper in the memory's place;
// wakers wires every engine handle the way core.New does, and without them
// the components are registered bare, the way cedarperf's rigs do.
type diffRig struct {
	eng *sim.Engine
	mem *Memory
	d   *scriptDriver
}

func newDiffRig(sc script, reference, wakers bool) *diffRig {
	p := params.Default()
	if sc.tune != nil {
		sc.tune(&p)
	}
	fwd := network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	rev := network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	mem := New(p, fwd, rev, nil)
	d := &scriptDriver{fwd: fwd, rev: rev, todo: sc.make(mem)}
	var memc sim.Component = mem
	if reference {
		memc = everyModule{mem}
	}
	eng := sim.New()
	hs := eng.Register(d, fwd, memc, rev)
	if wakers {
		fwd.SetWaker(hs[1])
		mem.SetWaker(hs[2])
		rev.SetWaker(hs[3])
	}
	return &diffRig{eng: eng, mem: mem, d: d}
}

// script is one traffic shape, on the paper machine unless tune says
// otherwise.
type script struct {
	name string
	tune func(p *params.Machine)
	make func(m *Memory) [][]send
}

// syncScript issues fetch-and-add tickets on one word and test-and-set on
// another, in bursts far enough apart for the memory to sleep on a busy
// pipeline.
var syncScript = script{"sync", nil, func(m *Memory) [][]send {
	todo := make([][]send, 32)
	for port := 0; port < 16; port++ {
		for i := 0; i < 12; i++ {
			addr := uint64(777)
			pk := network.Packet{Kind: network.SyncReq, Src: port, Dst: m.ModuleFor(addr), Addr: addr,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1, Tag: uint32(i)}
			if i%4 == 1 {
				addr = 4242
				pk.Addr, pk.Dst = addr, m.ModuleFor(addr)
				pk.Test, pk.TestArg, pk.Mut = network.TestEQ, 0, network.OpWrite
			}
			todo[port] = append(todo[port], send{at: int64(i) * 40, pkt: pk})
		}
	}
	return todo
}}

// scripts are the three traffic shapes of the memory characterization.
// Every port's requests carry distinct tags; bursts are spaced so that the
// memory drains and sleeps between them (the gap accounting in Tick).
var scripts = []script{
	// 32 ports streaming reads and a few writes across every module: the
	// reverse fabric pushes back, so reply stages bank up (DrainCyc) and
	// initiation stalls on them (Stalls).
	{"stream", nil, func(m *Memory) [][]send {
		todo := make([][]send, 32)
		for port := range todo {
			for i := 0; i < 60; i++ {
				addr := uint64(port*64 + i)
				pk := network.Packet{Kind: network.ReadReq, Src: port, Dst: m.ModuleFor(addr), Addr: addr, Tag: uint32(i)}
				if i%7 == 3 {
					pk.Kind, pk.Value = network.WriteReq, int64(port*1000+i)
				}
				todo[port] = append(todo[port], send{at: int64(i/20) * 150, pkt: pk})
			}
		}
		return todo
	}},
	// Every port at one module, 31 modules with nothing to do throughout.
	// A module that answers in one cycle but recovers for four sits empty
	// with requests waiting at its port: the StallCyc classification.
	{"conflict", func(p *params.Machine) { p.MemLatency, p.MemService = 1, 4 }, func(m *Memory) [][]send {
		todo := make([][]send, 32)
		for port := range todo {
			for i := 0; i < 25; i++ {
				addr := uint64(32 * (port*25 + i)) // module 0, distinct words
				pk := network.Packet{Kind: network.ReadReq, Src: port, Dst: m.ModuleFor(addr), Addr: addr, Tag: uint32(i)}
				if i%3 == 0 {
					pk.Kind, pk.Value = network.WriteReq, int64(i)
				}
				todo[port] = append(todo[port], send{at: int64(i/10) * 700, pkt: pk})
			}
		}
		return todo
	}},
	syncScript,
}

// TestActiveSetMatchesEveryModule runs each script on the production
// memory and on the tick-every-module reference, advancing both engines
// one cycle at a time, bare and with wakers wired (where the engine skips
// the memory's ticks while it sleeps, so Tick sees gaps). After every
// cycle Idle and InFlight must equal the full scan and the reference, and
// at the end the reply sequences (cycle, port, packet) and every counter
// must be identical.
func TestActiveSetMatchesEveryModule(t *testing.T) {
	var sum Stats // over every run: the scripts together must reach every counter
	for _, sc := range scripts {
		for _, wakers := range []bool{false, true} {
			sc, wakers := sc, wakers
			t.Run(fmt.Sprintf("%s/wakers=%v", sc.name, wakers), func(t *testing.T) {
				a, ref := newDiffRig(sc, false, wakers), newDiffRig(sc, true, wakers)
				for !a.d.Idle() || !a.mem.Idle() || !ref.d.Idle() {
					a.eng.Run(1)
					ref.eng.Run(1)
					c := a.eng.Cycle()
					if got, want := a.mem.InFlight(), scanInFlight(a.mem); got != want {
						t.Fatalf("cycle %d: InFlight() = %d, full scan %d", c, got, want)
					}
					if got, want := a.mem.InFlight(), scanInFlight(ref.mem); got != want {
						t.Fatalf("cycle %d: InFlight() = %d, reference %d", c, got, want)
					}
					if got, want := a.mem.Idle(), scanInFlight(a.mem) == 0; got != want {
						t.Fatalf("cycle %d: Idle() = %v, full scan %v", c, got, want)
					}
					if c > 100_000 {
						t.Fatalf("not idle after %d cycles", c)
					}
				}
				if len(a.d.log) == 0 || len(a.d.log) != len(ref.d.log) {
					t.Fatalf("%d replies, reference %d", len(a.d.log), len(ref.d.log))
				}
				for i := range a.d.log {
					if a.d.log[i] != ref.d.log[i] {
						t.Fatalf("reply %d: %+v, reference %+v", i, a.d.log[i], ref.d.log[i])
					}
				}
				if a.mem.Stats() != ref.mem.Stats() {
					t.Errorf("stats %+v, reference %+v", a.mem.Stats(), ref.mem.Stats())
				}
				st := a.mem.Stats()
				sum.Reads += st.Reads
				sum.Writes += st.Writes
				sum.SyncOps += st.SyncOps
				sum.Stalls += st.Stalls
				sum.BusyCyc += st.BusyCyc
				sum.DrainCyc += st.DrainCyc
				sum.StallCyc += st.StallCyc
				if a.mem.visits >= ref.mem.visits {
					t.Errorf("active set visited %d modules, every-module reference %d", a.mem.visits, ref.mem.visits)
				}
				for _, word := range a.mem.active {
					if word != 0 {
						t.Errorf("idle memory still has active modules: %#x", a.mem.active)
					}
				}
			})
		}
	}
	if sum.Reads == 0 || sum.Writes == 0 || sum.SyncOps == 0 || sum.Stalls == 0 ||
		sum.BusyCyc == 0 || sum.DrainCyc == 0 || sum.StallCyc == 0 {
		t.Errorf("the scripts never moved some counter, so its comparison is vacuous: %+v", sum)
	}
}

// TestWiredMemoryIsSkipped pins what makes the wakers=true half of the
// comparison meaningful: with wakers wired the engine really does skip the
// memory while it sleeps on a busy pipeline, so Tick's bulk gap accounting
// runs.
func TestWiredMemoryIsSkipped(t *testing.T) {
	r := newDiffRig(syncScript, false, true)
	ticks := int64(0)
	for !r.d.Idle() || !r.mem.Idle() {
		before := r.mem.lastTick
		r.eng.Run(1)
		if r.mem.lastTick != before {
			ticks++
		}
	}
	if ticks == 0 || ticks >= r.eng.Cycle() {
		t.Errorf("memory ticked on %d of %d cycles: the run never skipped it", ticks, r.eng.Cycle())
	}
}

// streamLoad keeps a few reads per CE port in flight through the rig,
// recycling the packet the memory rewrote into the reply — cedarperf's
// memory rig, inlined so it can be driven without an engine.
type streamLoad struct {
	fwd, rev *network.Omega
	mem      *Memory
	ports    int
	free     [][]*network.Packet
	next     []uint64
	stride   uint64
	cycle    int64
}

func newStreamLoad(ports int, stride uint64) *streamLoad {
	p := params.Default()
	fwd := network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	rev := network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	s := &streamLoad{fwd: fwd, rev: rev, mem: New(p, fwd, rev, nil), ports: ports, stride: stride}
	for i := 0; i < ports; i++ {
		pkts := make([]*network.Packet, 4)
		for k := range pkts {
			pkts[k] = new(network.Packet)
		}
		s.free = append(s.free, pkts)
		s.next = append(s.next, uint64(i)<<20)
	}
	return s
}

func (s *streamLoad) run(cycles int) {
	for ; cycles > 0; cycles-- {
		c := s.cycle
		for port := 0; port < s.ports; port++ {
			for pkt := s.rev.Poll(port); pkt != nil; pkt = s.rev.Poll(port) {
				s.free[port] = append(s.free[port], pkt)
			}
			n := len(s.free[port])
			if n == 0 {
				continue
			}
			pkt := s.free[port][n-1]
			*pkt = network.Packet{Kind: network.ReadReq, Src: port, Dst: s.mem.ModuleFor(s.next[port]), Addr: s.next[port], Issue: c}
			if s.fwd.Offer(pkt) {
				s.free[port] = s.free[port][:n-1]
				s.next[port] += s.stride
			}
		}
		s.fwd.Tick(c)
		s.mem.Tick(c)
		s.rev.Tick(c)
		s.cycle++
	}
}

// TestSteadyStateAllocsMemory is the runtime allocation gate on the
// memory: once the module pipelines, reply stages and fabric work lists
// have reached their working size, streaming reads through every module
// allocates nothing.
func TestSteadyStateAllocsMemory(t *testing.T) {
	s := newStreamLoad(32, 1)
	s.run(400)
	if s.mem.Stats().Reads == 0 {
		t.Fatal("warm-up served no reads")
	}
	if avg := testing.AllocsPerRun(10, func() { s.run(200) }); avg != 0 {
		t.Errorf("memory allocates %.1f times per 200 cycles of streaming reads, want 0", avg)
	}
}

// BenchmarkMemoryTick prices one cycle of driver → fwd → memory → rev and
// reports the work the active set leaves: modules visited per cycle (32
// before it, whatever the load).
func BenchmarkMemoryTick(b *testing.B) {
	for _, bc := range []struct {
		name   string
		ports  int
		stride uint64
	}{
		{"idle", 0, 1},
		{"one-module", 32, 32}, // every port's stream at its own region's module 0
		{"stream", 32, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := newStreamLoad(bc.ports, bc.stride)
			s.run(400)
			visits := s.mem.visits
			b.ReportAllocs()
			b.ResetTimer()
			s.run(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			b.ReportMetric(float64(s.mem.visits-visits)/float64(b.N), "modules/cycle")
		})
	}
}

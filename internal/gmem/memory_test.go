package gmem

import (
	"math/rand"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// rig wires CE-side driver ports to memory through forward and reverse
// omega networks, mirroring the real machine's tick order.
type rig struct {
	p      params.Machine
	eng    *sim.Engine
	fwd    *network.Omega
	rev    *network.Omega
	mem    *Memory
	driver *driver
}

type request struct {
	pkt     *network.Packet
	src     int    // original CE port (the packet is reused as its reply)
	tag     uint32 // original tag
	issued  bool
	reply   *network.Packet
	replyAt int64
}

// driver issues requests from CE ports and collects replies. It is a
// stand-in for the CE/PFU components built later.
type driver struct {
	fwd, rev network.Fabric
	reqs     []*request
	pending  map[int][]*request // per-port FIFO of unissued requests
	out      map[int]int        // outstanding per port
}

func (d *driver) Name() string { return "driver" }
func (d *driver) Idle() bool {
	for _, r := range d.reqs {
		if r.reply == nil {
			return false
		}
	}
	return true
}

func (d *driver) add(r *request) {
	if d.pending == nil {
		d.pending = make(map[int][]*request)
		d.out = make(map[int]int)
	}
	r.src = r.pkt.Src
	r.tag = r.pkt.Tag
	d.reqs = append(d.reqs, r)
	d.pending[r.src] = append(d.pending[r.src], r)
}

func (d *driver) Tick(cycle int64) {
	// Collect replies.
	for port := range d.pending {
		for {
			rep := d.rev.Poll(port)
			if rep == nil {
				break
			}
			matched := false
			for _, r := range d.reqs {
				if r.issued && r.reply == nil && r.src == port && r.tag == rep.Tag {
					r.reply = rep
					r.replyAt = cycle
					d.out[port]--
					matched = true
					break
				}
			}
			if !matched {
				panic("driver: unmatched reply")
			}
		}
	}
	// Issue new requests, one per port per cycle.
	for port, q := range d.pending {
		if len(q) == 0 {
			continue
		}
		r := q[0]
		r.pkt.Issue = cycle
		if d.fwd.Offer(r.pkt) {
			r.issued = true
			d.pending[port] = q[1:]
			d.out[port]++
		}
	}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	p := params.Default()
	fwd := network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	rev := network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	mem := New(p, fwd, rev, nil)
	d := &driver{fwd: fwd, rev: rev}
	eng := sim.New()
	eng.Register(d, fwd, mem, rev)
	return &rig{p: p, eng: eng, fwd: fwd, rev: rev, mem: mem, driver: d}
}

func (r *rig) run(t *testing.T, limit int64) {
	t.Helper()
	if err := r.eng.RunUntilIdle(limit); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func (r *rig) port(addr uint64) int { return r.mem.ModuleFor(addr) }

func TestReadAfterWrite(t *testing.T) {
	r := newRig(t)
	addr := uint64(12345)
	w := &request{pkt: &network.Packet{Kind: network.WriteReq, Src: 0, Dst: r.port(addr), Addr: addr, Value: 77, Tag: 1}}
	r.driver.add(w)
	r.run(t, 1000)
	if w.reply == nil || w.reply.Kind != network.WriteAck {
		t.Fatalf("write not acked: %+v", w.reply)
	}
	rd := &request{pkt: &network.Packet{Kind: network.ReadReq, Src: 5, Dst: r.port(addr), Addr: addr, Tag: 2}}
	r.driver.add(rd)
	r.run(t, 1000)
	if rd.reply == nil || rd.reply.Value != 77 {
		t.Fatalf("read returned %+v, want 77", rd.reply)
	}
}

func TestUnloadedLatencyIsEight(t *testing.T) {
	// The paper: minimal Latency is 8 cycles from network issue to return.
	r := newRig(t)
	addr := uint64(3)
	rd := &request{pkt: &network.Packet{Kind: network.ReadReq, Src: 9, Dst: r.port(addr), Addr: addr, Tag: 1}}
	r.driver.add(rd)
	r.run(t, 1000)
	lat := rd.replyAt - rd.reply.Issue
	if lat != 8 {
		t.Fatalf("unloaded round trip = %d cycles, want 8", lat)
	}
}

func TestPipelinedModuleThroughput(t *testing.T) {
	// One CE streaming reads to one module: limited by module service
	// rate (1/cycle), so N reads take ≈N cycles beyond the pipe latency.
	r := newRig(t)
	const n = 400
	for i := 0; i < n; i++ {
		addr := uint64(32 * i) // same module (stride = MemModules)
		r.driver.add(&request{pkt: &network.Packet{Kind: network.ReadReq, Src: 0, Dst: r.port(addr), Addr: addr, Tag: uint32(i)}})
	}
	r.run(t, 100000)
	cycles := r.eng.Cycle()
	svc := int64(r.p.MemService)
	if cycles > int64(n)*svc+50 {
		t.Errorf("streaming %d reads took %d cycles; module not pipelined", n, cycles)
	}
	if cycles < int64(n)*svc {
		t.Errorf("streaming %d reads took %d cycles; faster than the module cycle time", n, cycles)
	}
}

func TestInterleavingSpreadsModules(t *testing.T) {
	r := newRig(t)
	seen := map[int]bool{}
	for a := uint64(0); a < 64; a++ {
		seen[r.mem.ModuleFor(a)] = true
	}
	if len(seen) != r.p.MemModules {
		t.Errorf("sequential addresses touch %d modules, want %d", len(seen), r.p.MemModules)
	}
}

func TestSyncFetchAddAtomic(t *testing.T) {
	// 32 CEs fetch-add 1 to one counter; all old values must be distinct
	// and the final value equals the request count — the indivisibility
	// property of the synchronization processors.
	r := newRig(t)
	const per = 8
	addr := uint64(777)
	var reqs []*request
	for ce := 0; ce < 32; ce++ {
		for i := 0; i < per; i++ {
			rq := &request{pkt: &network.Packet{
				Kind: network.SyncReq, Src: ce, Dst: r.port(addr), Addr: addr,
				Test: network.TestAlways, Mut: network.OpAdd, Value: 1,
				Tag: uint32(ce*1000 + i),
			}}
			reqs = append(reqs, rq)
			r.driver.add(rq)
		}
	}
	r.run(t, 1_000_000)
	seen := map[int64]bool{}
	for _, rq := range reqs {
		if rq.reply == nil || rq.reply.Kind != network.SyncReply {
			t.Fatalf("missing sync reply: %+v", rq)
		}
		if !rq.reply.TestPassed {
			t.Fatal("TestAlways must pass")
		}
		if seen[rq.reply.Value] {
			t.Fatalf("duplicate fetch-add ticket %d: atomicity violated", rq.reply.Value)
		}
		seen[rq.reply.Value] = true
	}
	if got := r.mem.Store().Load(addr); got != 32*per {
		t.Fatalf("final counter = %d, want %d", got, 32*per)
	}
}

func TestTestAndSetMutualExclusion(t *testing.T) {
	// Test-And-Set = Test(EQ 0) And Write(1). Exactly one requester may
	// win when many race.
	r := newRig(t)
	addr := uint64(4242)
	var reqs []*request
	for ce := 0; ce < 16; ce++ {
		rq := &request{pkt: &network.Packet{
			Kind: network.SyncReq, Src: ce, Dst: r.port(addr), Addr: addr,
			Test: network.TestEQ, TestArg: 0, Mut: network.OpWrite, Value: 1,
			Tag: uint32(ce),
		}}
		reqs = append(reqs, rq)
		r.driver.add(rq)
	}
	r.run(t, 100000)
	winners := 0
	for _, rq := range reqs {
		if rq.reply.TestPassed {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d CEs acquired the lock, want exactly 1", winners)
	}
	if got := r.mem.Store().Load(addr); got != 1 {
		t.Fatalf("lock value = %d, want 1", got)
	}
}

func TestTestAndOperateConditional(t *testing.T) {
	// Zhu-Yew style: decrement only while positive.
	r := newRig(t)
	addr := uint64(99)
	r.mem.Store().StoreWord(addr, 3)
	var reqs []*request
	for ce := 0; ce < 8; ce++ {
		rq := &request{pkt: &network.Packet{
			Kind: network.SyncReq, Src: ce, Dst: r.port(addr), Addr: addr,
			Test: network.TestGT, TestArg: 0, Mut: network.OpSub, Value: 1,
			Tag: uint32(ce),
		}}
		reqs = append(reqs, rq)
		r.driver.add(rq)
	}
	r.run(t, 100000)
	passed := 0
	for _, rq := range reqs {
		if rq.reply.TestPassed {
			passed++
		}
	}
	if passed != 3 {
		t.Fatalf("%d decrements passed, want 3", passed)
	}
	if got := r.mem.Store().Load(addr); got != 0 {
		t.Fatalf("counter = %d, want 0", got)
	}
}

func TestManyPortsLatencyDegradesUnderLoad(t *testing.T) {
	// Qualitative Table 2 behaviour: 32 CEs streaming raise average
	// latency above the unloaded 8 cycles.
	r := newRig(t)
	const per = 60
	for ce := 0; ce < 32; ce++ {
		for i := 0; i < per; i++ {
			addr := uint64(ce*per + i)
			r.driver.add(&request{pkt: &network.Packet{Kind: network.ReadReq, Src: ce, Dst: r.port(addr), Addr: addr, Tag: uint32(ce*1000 + i)}})
		}
	}
	r.run(t, 1_000_000)
	var sum, n int64
	for _, rq := range r.driver.reqs {
		sum += rq.replyAt - rq.reply.Issue
		n++
	}
	avg := float64(sum) / float64(n)
	if avg <= 8 {
		t.Errorf("average loaded latency %.2f, want > 8 (contention)", avg)
	}
	if avg > 200 {
		t.Errorf("average loaded latency %.2f implausibly high", avg)
	}
}

func TestRandomTrafficConservesReplies(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(3))
	n := 500
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 16))
		kind := network.ReadReq
		if rng.Intn(3) == 0 {
			kind = network.WriteReq
		}
		r.driver.add(&request{pkt: &network.Packet{Kind: kind, Src: rng.Intn(32), Dst: r.port(addr), Addr: addr, Value: int64(i), Tag: uint32(i)}})
	}
	r.run(t, 1_000_000)
	for i, rq := range r.driver.reqs {
		if rq.reply == nil {
			t.Fatalf("request %d never answered", i)
		}
	}
	st := r.mem.Stats()
	if st.Reads+st.Writes != int64(n) {
		t.Errorf("memory stats count %d, want %d", st.Reads+st.Writes, n)
	}
}

// TestNewCostsNoObjectPerModule builds memories of 32 and 2 modules, with
// and without a dead bank, and requires them to cost the same objects:
// New carves every per-module table from slabs sized once, so a table that
// grows by append as modules are added (a live-module list appended from
// nil is four more objects at 32 modules than at 2) fails here.
func TestNewCostsNoObjectPerModule(t *testing.T) {
	store := NewStore()
	cost := func(modules int, dead bool) float64 {
		p := params.Default()
		p.MemModules = modules
		var inj *fault.Injector
		if dead {
			var err error
			if inj, err = fault.NewInjector(p, &fault.Plan{Faults: []fault.Fault{{Kind: fault.BankDead, Module: 1}}}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			m := New(p, nil, nil, store)
			if dead {
				m.SetFaults(inj)
			}
		})
	}
	for _, dead := range []bool{false, true} {
		wide, narrow := cost(32, dead), cost(2, dead)
		if wide != narrow {
			t.Errorf("dead bank %v: New costs %.0f objects at 32 modules, %.0f at 2", dead, wide, narrow)
		}
		t.Logf("dead bank %v: %.0f objects at 32 modules and %.0f at 2", dead, wide, narrow)
	}
}

// TestNewKeepsItsOwnStoreInline requires New without a store to cost the
// objects New with one costs: the memory holds its own store by value, so
// a store allocated beside every Memory fails here. Two such memories must
// still not share it.
func TestNewKeepsItsOwnStoreInline(t *testing.T) {
	p := params.Default()
	shared := NewStore()
	own := testing.AllocsPerRun(10, func() { New(p, nil, nil, nil) })
	given := testing.AllocsPerRun(10, func() { New(p, nil, nil, shared) })
	if own != given {
		t.Errorf("New costs %.0f objects with its own store, %.0f given one", own, given)
	}
	a, b := New(p, nil, nil, nil), New(p, nil, nil, nil)
	a.Store().StoreWord(7, 1)
	if b.Store().Load(7) != 0 || a.Store().Load(7) != 1 {
		t.Error("two memories built without a store share one")
	}
}

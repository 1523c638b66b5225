package gmem

import (
	"fmt"
	"math/bits"

	"cedar/internal/fault"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// Memory is the global shared memory system: MemModules interleaved
// modules. Consecutive 8-byte words map to consecutive modules
// (double-word interleaving). When the network has more ports than
// modules, modules are spread across the port space (module i on port
// i·(ports/modules)) so the destination tags exercise every switch output
// digit — the wiring choice that keeps a 32-module system from funnelling
// all traffic through a quarter of a 64-port network's first-stage
// outputs.
//
// Each module initiates at most one request per MemService cycles, holds a
// pipeline of accesses completing MemLatency cycles after initiation
// (SyncOpLatency more for synchronization instructions), and retires one
// reply per cycle into the reverse network, with back-pressure stalling
// initiation when replies bank up.
//
// A tick costs what is in flight, not what is built: the memory is the
// forward fabric's PortSink for every module port, and keeps the set of
// modules that hold or may be about to receive a packet; Tick,
// NextWakeup, Idle and InFlight walk that set only (DESIGN.md,
// "Occupancy-driven data path").
type Memory struct {
	p          params.Machine
	fwd        network.Fabric
	rev        network.Fabric
	data       *Store
	mods       []module
	portStride int

	// live lists the in-service module indices; interleaving maps
	// addr % len(live) onto it. Healthy machines list every module, so
	// the mapping reduces to the plain addr % MemModules interleave.
	live []int
	inj  *fault.Injector

	// active has bit i set while module i's pipeline or reply stage is
	// non-empty or its forward egress queue may hold a packet. PortReady
	// sets it, the tick that finds all three empty clears it. A module
	// outside the set has nothing tickModule could classify, retire, offer
	// or initiate, so skipping it is skipping a no-op.
	active []uint64
	// visits counts tickModule calls — the work unit the active set exists
	// to cut (BenchmarkMemoryTick reports it per cycle).
	visits int64
	// widePipes and wideOuts hold every module's wide stages, carved on
	// the first widen (module.pipe).
	widePipes []inflight
	wideOuts  []*network.Packet

	stats Stats
	// lastTick is the last executed cycle, for exact per-cycle counter
	// accounting across engine jumps: a sleeping module's state is frozen,
	// so the skipped cycles contribute gap × (frozen classification).
	lastTick int64
	wake     sim.Handle
}

// Stats holds cumulative memory-system counters. BusyCyc, DrainCyc and
// StallCyc classify each module-cycle into at most one bucket (by the
// module's state at tick entry), so busy+stall never exceeds elapsed
// module-cycles and the attribution conservation law holds exactly.
type Stats struct {
	Reads   int64
	Writes  int64
	SyncOps int64
	Stalls  int64 // initiation stalls due to reply back-pressure (events)
	BusyCyc int64 // module-cycles spent with the pipeline non-empty
	// DrainCyc counts module-cycles with an empty pipeline but replies
	// still staged for the reverse network (the module is draining).
	DrainCyc int64
	// StallCyc counts module-cycles where a consumable request waits at
	// the port but the MemService recovery gap blocks initiation and the
	// module is otherwise empty.
	StallCyc int64
}

type inflight struct {
	pkt  *network.Packet
	done int64
	nack bool // bounce instead of execute (injected PFU NACK)
}

type module struct {
	nextInit int64 // earliest cycle the module may initiate a request
	// pipe and out start narrow, one slot each carved by New from two
	// slabs shared by every module: what a module serving one request at
	// a time reaches. A module that needs a second slot widens: the first
	// to do so carves every module's wide stages — pipeCap and outCap
	// slots — from two more slabs. Three-index slices keep one module's
	// growth out of its neighbour's stage; out never exceeds outCap, and
	// only a fault plan's bank stalls push pipe past pipeCap, into an
	// array of its own.
	pipe []inflight
	out  []*network.Packet // replies awaiting the reverse network
}

// narrow reports whether the module still runs on its one-slot stages.
func (md *module) narrow() bool { return cap(md.out) < outCap }

// outCap bounds banked-up replies before a module stalls initiation; it
// models the module's reply staging buffer.
const outCap = 4

// pipeCap is what a healthy module holds in flight: one initiation per
// MemService cycles, each retiring MemLatency (+ SyncOpLatency) cycles
// later, plus the one a full reply stage can hold back.
func pipeCap(p params.Machine) int {
	return (p.MemLatency+p.SyncOpLatency)/max(p.MemService, 1) + 2
}

// New builds the memory system over the given fabrics. The store is shared
// backdoor state: runtime code may Peek/Poke it directly for setup.
func New(p params.Machine, fwd, rev network.Fabric, data *Store) *Memory {
	if data == nil {
		data = NewStore()
	}
	stride := 1
	if fwd != nil && fwd.Ports() > p.MemModules {
		stride = fwd.Ports() / p.MemModules
	}
	m := &Memory{
		p:          p,
		fwd:        fwd,
		rev:        rev,
		data:       data,
		mods:       make([]module, p.MemModules),
		portStride: stride,
		active:     make([]uint64, (p.MemModules+63)/64),
		lastTick:   -1,
	}
	pipes, outs := make([]inflight, p.MemModules), make([]*network.Packet, p.MemModules)
	for i := range m.mods {
		m.mods[i].pipe, m.mods[i].out = pipes[i:i:i+1], outs[i:i:i+1]
	}
	m.remap()
	if fwd != nil {
		for i := range m.mods {
			fwd.SetPortSink(m.PortOf(i), m)
		}
	}
	return m
}

// PortReady implements network.PortSink for the forward fabric: a request
// has landed at a module's port, consumable from cycle at on (the memory
// ticks after the forward fabric). The module joins the active set, and
// the engine — when one is wired — is told, so a sleeping memory wakes.
func (m *Memory) PortReady(port int, at int64) {
	i := port / m.portStride
	m.active[i>>6] |= 1 << (i & 63)
	m.wake.Wake(at)
}

// SetFaults installs a fault injector and remaps interleaving around
// any dead banks. Call before the first access: remapping moves
// addresses between modules, so live data does not survive it.
func (m *Memory) SetFaults(inj *fault.Injector) {
	m.inj = inj
	m.remap()
}

// remap rebuilds the live-module list from the injector's dead set.
func (m *Memory) remap() {
	m.live = m.live[:0]
	for i := range m.mods {
		if !m.inj.BankDead(i) {
			m.live = append(m.live, i)
		}
	}
}

// Name implements sim.Component.
func (m *Memory) Name() string { return "gmem" }

// Idle implements sim.Idler.
func (m *Memory) Idle() bool { return m.InFlight() == 0 }

// Stats returns cumulative counters.
func (m *Memory) Stats() Stats { return m.stats }

// InFlight returns the accesses currently held in module pipelines plus
// replies awaiting the reverse network — an occupancy gauge for the
// observability hub.
func (m *Memory) InFlight() int {
	n := 0
	for wi, word := range m.active {
		for ; word != 0; word &= word - 1 {
			md := &m.mods[wi<<6+bits.TrailingZeros64(word)]
			n += len(md.pipe) + len(md.out)
		}
	}
	return n
}

// Modules returns the module count (the denominator for module-cycle
// attribution).
func (m *Memory) Modules() int { return len(m.mods) }

// Store returns the backdoor store.
func (m *Memory) Store() *Store { return m.data }

// ModuleFor returns the fabric port of the module serving a word
// address. With dead banks the interleave narrows to the live modules:
// the machine degrades in bandwidth instead of faulting on a quarter
// of its address space.
func (m *Memory) ModuleFor(addr uint64) int {
	return m.live[int(addr%uint64(len(m.live)))] * m.portStride
}

// PortOf returns the fabric port of module i.
func (m *Memory) PortOf(i int) int { return i * m.portStride }

// Tick implements sim.Component.
func (m *Memory) Tick(cycle int64) {
	// gap > 0: the engine skipped the memory entirely for gap cycles. A
	// module can only sleep with a non-empty pipeline (busy; replies staged
	// or consumable port traffic force wakefulness) or fully empty (idle),
	// and its state is frozen while asleep, so bulk-adding the gap
	// reproduces the stepped run's counters exactly.
	gap := cycle - m.lastTick - 1
	m.lastTick = cycle
	for wi, word := range m.active {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			md := &m.mods[i]
			if gap > 0 && len(md.pipe) > 0 {
				m.stats.BusyCyc += gap
			}
			m.tickModule(i, cycle)
			if len(md.pipe) == 0 && len(md.out) == 0 && m.fwd.NextAt(m.PortOf(i), cycle) == sim.Never {
				// Nothing held and nothing at the port: every later tick
				// is a no-op until PortReady says otherwise.
				m.active[wi] &^= 1 << (i & 63)
			}
		}
	}
}

// SetWaker installs the memory's engine handle, through which PortReady
// rouses a sleeping memory when a request lands at a module port. Until a
// waker is wired the memory never sleeps: a future-wake answer could
// strand arriving traffic.
func (m *Memory) SetWaker(wake sim.Handle) { m.wake = wake }

// NextWakeup implements sim.Sleeper: the earliest cycle any module must
// act — now while replies are staged (one offer per cycle) or a
// consumable request waits at a port, the earliest pipeline retirement
// or port arrival otherwise. Packets that arrive while the memory
// sleeps wake it through PortReady.
func (m *Memory) NextWakeup(now int64) int64 {
	if m.wake.IsZero() {
		return now
	}
	w := sim.Never
	for wi, word := range m.active {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			md := &m.mods[i]
			if len(md.out) > 0 {
				return now
			}
			if len(md.pipe) > 0 {
				t := md.pipe[0].done
				if t < now {
					t = now
				}
				if t < w {
					w = t
				}
			}
			if t := m.fwd.NextAt(m.PortOf(i), now); t < w {
				// Wake when the packet is consumable even if nextInit gates
				// actual initiation: the waiting cycles are the module's
				// stall classification and must be observed per cycle.
				w = t
			}
		}
	}
	return w
}

// tickModule advances one memory module: initiate the head request, age
// the pipeline, and emit due replies. Panics on a packet kind a memory
// module cannot serve — a routing bug, not a runtime condition.
func (m *Memory) tickModule(i int, cycle int64) {
	m.visits++
	md := &m.mods[i]
	switch {
	case len(md.pipe) > 0:
		m.stats.BusyCyc++
	case len(md.out) > 0:
		m.stats.DrainCyc++
	case cycle < md.nextInit && m.fwd.Peek(m.PortOf(i)) != nil:
		m.stats.StallCyc++
	}

	// Retire completed accesses into the reply stage.
	for len(md.pipe) > 0 && md.pipe[0].done <= cycle && len(md.out) < outCap {
		if len(md.out) == cap(md.out) {
			m.widen(i)
		}
		f := md.pipe[0]
		if f.nack {
			md.out = append(md.out, nackReply(f.pkt))
		} else {
			md.out = append(md.out, m.execute(f.pkt))
		}
		copy(md.pipe, md.pipe[1:])
		md.pipe = md.pipe[:len(md.pipe)-1]
	}

	// Offer one reply per cycle to the reverse network.
	if len(md.out) > 0 {
		if m.rev.Offer(md.out[0]) {
			copy(md.out, md.out[1:])
			md.out = md.out[:len(md.out)-1]
		}
	}

	// Initiate a new request if the pipeline and reply stage allow.
	if cycle < md.nextInit {
		return
	}
	if len(md.out) >= outCap {
		m.stats.Stalls++
		return
	}
	pkt := m.fwd.Peek(m.PortOf(i))
	if pkt == nil {
		return
	}
	lat := int64(m.p.MemLatency) + m.inj.BankStall(i, cycle)
	nack := false
	switch pkt.Kind {
	case network.ReadReq:
		// A busy module may refuse optional (prefetch) traffic; the
		// request still occupies an initiation slot but bounces back as
		// a NACK instead of executing.
		if pkt.Tag&network.PrefetchTagBit != 0 && m.inj.PFUNack(i, cycle) {
			nack = true
		} else {
			m.stats.Reads++
		}
	case network.WriteReq:
		m.stats.Writes++
	case network.SyncReq:
		m.stats.SyncOps++
		lat += int64(m.p.SyncOpLatency)
	default:
		panic(fmt.Sprintf("gmem: unexpected packet kind %v at module %d", pkt.Kind, i))
	}
	m.fwd.Poll(m.PortOf(i))
	if len(md.pipe) == cap(md.pipe) && md.narrow() {
		m.widen(i)
	}
	md.pipe = append(md.pipe, inflight{pkt: pkt, done: cycle + lat, nack: nack})
	md.nextInit = cycle + int64(m.p.MemService)
}

// widen moves module i from its narrow stages to its wide ones, carving
// every module's wide stages on the first call.
func (m *Memory) widen(i int) {
	k := pipeCap(m.p)
	if m.widePipes == nil {
		m.widePipes = make([]inflight, len(m.mods)*k)            // first touch: once per machine, on the first module to hold two requests or replies
		m.wideOuts = make([]*network.Packet, len(m.mods)*outCap) // with widePipes, once per machine
	}
	md := &m.mods[i]
	pipe, out := m.widePipes[i*k:(i+1)*k:(i+1)*k], m.wideOuts[i*outCap:(i+1)*outCap:(i+1)*outCap]
	md.pipe, md.out = pipe[:copy(pipe, md.pipe)], out[:copy(out, md.out)]
}

// nackReply turns a refused prefetch read into its bounce, reusing the
// packet like execute does.
func nackReply(req *network.Packet) *network.Packet {
	reply := req
	reply.Src, reply.Dst = req.Dst, req.Src
	reply.Kind = network.NackReply
	reply.Value = 0
	reply.TestPassed = false
	return reply
}

// execute performs the semantic effect of a request and turns the packet
// into its own reply (the request has left the forward network and is
// owned by the module, so reuse is safe and halves packet allocations on
// the simulator's hottest path). Mutations happen at retire time; because
// each address belongs to exactly one module and a module retires
// serially, read-modify-write operations are indivisible, exactly as the
// hardware synchronization processors guarantee.
func (m *Memory) execute(req *network.Packet) *network.Packet {
	reply := req
	reply.Src, reply.Dst = req.Dst, req.Src
	reply.TestPassed = false
	switch req.Kind {
	case network.ReadReq:
		reply.Kind = network.ReadReply
		reply.Value = m.data.Load(req.Addr)
	case network.WriteReq:
		m.data.StoreWord(req.Addr, req.Value)
		reply.Kind = network.WriteAck
		reply.Value = 0
	case network.SyncReq:
		old := m.data.Load(req.Addr)
		if req.Test.Eval(old, req.TestArg) {
			reply.TestPassed = true
			m.data.StoreWord(req.Addr, req.Mut.Apply(old, req.Value))
		}
		reply.Kind = network.SyncReply
		reply.Value = old
	}
	return reply
}

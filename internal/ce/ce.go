package ce

import (
	"fmt"

	"cedar/internal/cache"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/prefetch"
	"cedar/internal/sim"
)

// Tag layout for CE-issued packets (bit 31 belongs to the PFU).
const (
	tagKindShift = 28
	tagKindVec   = 1 << tagKindShift
	tagKindLoad  = 2 << tagKindShift
	tagKindSync  = 3 << tagKindShift
	tagKindStore = 4 << tagKindShift
	tagKindMask  = 7 << tagKindShift
)

// CE is one computational element.
type CE struct {
	ID          int // machine-wide CE number
	Cluster     int
	IDInCluster int
	Port        int // network port

	p      timing
	fwd    network.Fabric
	rev    network.Fabric
	pfu    prefetch.PFU
	cache  *cache.Cache
	modFor func(uint64) int
	ctrl   Controller

	// sh is the machine's shared state. Its pool recycles packets:
	// requests return to the issuing port as in-place replies, so the
	// consumer in drainReplies retires them straight back there, and a
	// packet retired here may be reissued by any CE or PFU of the machine.
	// Its stream slab holds the CE's stream table.
	sh *Shared

	// reg is the instruction register: the controller fills it and the CE
	// executes from it, so no controller storage is read after Next
	// returns — a load's Done may rewrite the queue slot it was issued
	// from, and the CE still reads Flops afterwards.
	// cur points at reg while an instruction is in progress, nil when idle.
	reg Instr
	cur *Instr

	// Scalar execution.
	busyUntil int64
	started   bool

	// Blocking scalar load / sync.
	issuedScalar bool
	scalarDoneAt int64
	scalarVal    int64
	scalarPassed bool
	scalarBack   bool

	// Vector execution.
	vec vecState

	// Store tracking (global write acks). pendingStores holds, in order,
	// up to storePendingCap retired stores the forward fabric refused,
	// linked through the packets themselves: a refusal costs no object.
	storesOutstanding int
	pendingStores     network.WordQueue

	// Accounting.
	flops     int64
	finished  bool
	activeCyc int64
	waitCyc   int64
	doneAt    int64
	// lastTick is the last executed cycle, for exact counter accounting
	// across engine jumps: a sleeping CE's instruction state is frozen,
	// so skipped cycles carry the frozen active/wait classification.
	lastTick int64
	wake     sim.Handle

	// Fault recovery (degraded-mode runs).
	faulty  bool  // fault plan active: poll the PFU for terminal errors
	failErr error // terminal fault; the CE abandons its program
}

// timing is what a CE reads of params.Machine. A CE keeps these four
// constants, not a copy of the whole parameter set: a copy is 272 bytes on
// every CE of every machine built.
type timing struct {
	CELoadOverhead int
	MaxOutstanding int
	MaxVL          int
	VectorStartup  int
}

type vecState struct {
	streams      []streamState
	dst          *Stream
	n            int
	flopsPer     int64
	completed    int
	pipeFree     int64
	stripCharged bool
	outstanding  int     // non-prefetch global loads in flight (≤ MaxOutstanding)
	freeAt       []int64 // completion times that release outstanding slots
	storesQueued int     // completed elements whose store is not yet issued
	nextStoreEl  int
}

type streamState struct {
	s      Stream
	issued int
	avail  []int64 // per-element availability cycle; -1 = not yet

	// Prefetch block management.
	blockStart int // first element of the armed block
	blockLen   int

	// Cluster in-order delivery.
	clusterInFlight int
}

// Shared is what every CE of a machine carves from: the packet pool,
// whose word slab holds the PFUs' buffers (network.PacketPool), and the
// slab the CEs' stream tables come from. A machine holds one by value and
// hands each CE a pointer, so k CEs taking equal tables on first touch
// cost 1 + log2(k) objects, not k. The zero Shared is ready.
type Shared struct {
	pool    network.PacketPool
	streams network.Slab[streamState]
}

// New builds a CE with its PFU inside it. It returns the CE by value for
// the caller to store where it lives — a machine keeps all its CEs in one
// slab — and the CE must not be copied once it is wired or run. cache may
// be nil for configurations under test without a cluster hierarchy; sh
// is the state the CE and its PFU share with the rest of the machine.
func New(p params.Machine, id, clusterID, idInCluster, port int,
	fwd, rev network.Fabric, cch *cache.Cache, modFor func(uint64) int, sh *Shared) CE {
	return CE{
		ID:          id,
		Cluster:     clusterID,
		IDInCluster: idInCluster,
		Port:        port,
		p: timing{
			CELoadOverhead: p.CELoadOverhead,
			MaxOutstanding: p.MaxOutstanding,
			MaxVL:          p.MaxVL,
			VectorStartup:  p.VectorStartup,
		},
		fwd:      fwd,
		rev:      rev,
		pfu:      *prefetch.New(p, port, fwd, modFor, &sh.pool),
		cache:    cch,
		modFor:   modFor,
		sh:       sh,
		lastTick: -1,
	}
}

// PFU exposes the CE's prefetch unit (for monitor attachment).
func (c *CE) PFU() *prefetch.PFU { return &c.pfu }

// ArmFaultRecovery enables degraded-mode operation: the PFU arms its
// NACK/timeout retry machinery and the CE turns a retry-exhausted
// element into a recorded error (surfaced by Err) instead of waiting
// forever on a word that will never arrive.
func (c *CE) ArmFaultRecovery() {
	c.faulty = true
	c.pfu.ArmRetry()
}

// Err returns the terminal fault that made this CE abandon its program,
// or nil. A failed CE reports Idle so the run can finish and the
// machine can surface a degraded result.
func (c *CE) Err() error { return c.failErr }

// fail records a terminal fault and abandons the current instruction.
func (c *CE) fail(err error, cycle int64) {
	if c.failErr != nil {
		return
	}
	c.failErr = fmt.Errorf("ce%d: %w", c.ID, err) // terminal: at most once per CE per run
	c.cur = nil
	c.finished = true
	c.doneAt = cycle
}

// SetController installs the instruction source and clears completion.
func (c *CE) SetController(ctrl Controller) {
	c.ctrl = ctrl
	c.finished = false
}

// Flops returns the floating-point operations completed so far.
func (c *CE) Flops() int64 { return c.flops }

// ActiveCycles returns cycles spent with an instruction in progress.
func (c *CE) ActiveCycles() int64 { return c.activeCyc }

// WaitCycles returns cycles spent idle waiting for the controller.
func (c *CE) WaitCycles() int64 { return c.waitCyc }

// StoresOutstanding returns the store acknowledgements still in flight —
// an occupancy gauge for the observability hub.
func (c *CE) StoresOutstanding() int { return c.storesOutstanding }

// DoneAt returns the cycle the controller finished (valid once Idle).
func (c *CE) DoneAt() int64 { return c.doneAt }

// Name implements sim.Component.
func (c *CE) Name() string { return fmt.Sprintf("ce%d", c.ID) }

// Idle implements sim.Idler: finished and nothing in flight. A CE that
// hit a terminal fault abandoned its program: it is idle as soon as its
// stores drain, so the run can end and report the degradation.
func (c *CE) Idle() bool {
	if c.failErr != nil {
		return c.storesOutstanding == 0 && c.pendingStores.Head() == nil
	}
	return c.finished && c.cur == nil && c.storesOutstanding == 0 &&
		c.pendingStores.Head() == nil && !c.pfu.Busy()
}

// SetWaker installs the CE's engine handle, woken by cache completions
// and by PortReady. Until one is wired (the zero Handle) the CE never
// sleeps.
func (c *CE) SetWaker(wake sim.Handle) { c.wake = wake }

// PortReady implements network.PortSink for the reverse fabric (the
// machine installs the CE as the sink of its own port): a reply has landed,
// consumable by an after-fabric sink from cycle at on. The CE ticks before
// the reverse fabric, so it can take the packet one cycle later.
func (c *CE) PortReady(_ int, at int64) {
	c.wake.Wake(at + 1)
}

// NextWakeup implements sim.Sleeper: the earliest cycle this CE must
// tick given its instruction state. External completions reach it by
// push — the reverse network's PortReady and the cache's CacheDone —
// so phases that only await them sleep indefinitely.
func (c *CE) NextWakeup(now int64) int64 {
	if c.wake.IsZero() {
		return now
	}
	w := sim.Never
	// Reverse-port traffic: a packet that reached the fabric egress at
	// cycle t is consumable the cycle after (the fabric ticks after us).
	if t := c.rev.NextAt(c.Port, now-1); t != sim.Never && t+1 < w {
		w = t + 1
	}
	if c.pendingStores.Head() != nil {
		return now // retryStores offers every cycle
	}
	if c.cur == nil {
		if !c.finished {
			return now // the controller is polled every cycle
		}
	} else {
		switch c.cur.Op {
		case OpScalar:
			if !c.started {
				return now
			}
			if c.busyUntil < w {
				w = c.busyUntil
			}
		case OpGlobalLoad, OpSync:
			if !c.issuedScalar {
				return now // offering until the network accepts
			}
			if c.scalarBack && c.scalarDoneAt < w {
				w = c.scalarDoneAt
			}
			// Reply in flight: the reverse port wakes us.
		case OpGlobalStore, OpClusterStore:
			return now // offering until accepted
		case OpFence:
			if c.storesOutstanding == 0 {
				return now // retires on the next tick
			}
			// Waiting on write acks: the reverse port wakes us.
		case OpClusterLoad:
			if !c.started {
				return now // submitting until the cache accepts
			}
			if c.scalarBack && c.scalarDoneAt < w {
				w = c.scalarDoneAt
			}
			// The cache completion wakes us via CacheDone.
		case OpVector:
			if !c.started {
				return now
			}
			if t := c.vecWakeup(now); t < w {
				w = t
			}
		}
	}
	if t := c.pfu.NextWakeup(now); t < w {
		w = t
	}
	if w < now {
		return now
	}
	return w
}

// Tick implements sim.Component.
func (c *CE) Tick(cycle int64) {
	if gap := cycle - c.lastTick - 1; gap > 0 {
		// cur and finished only change inside ticks, so the skipped
		// cycles all carry the frozen classification. A CE waiting on its
		// controller never sleeps, so the waitCyc arm is for safety.
		if c.cur != nil {
			c.activeCyc += gap
		} else if !c.finished {
			c.waitCyc += gap
		}
	}
	c.lastTick = cycle
	c.drainReplies(cycle)
	c.retryStores()

	if c.cur == nil && !c.finished {
		c.fetch(cycle)
	}
	if c.cur != nil {
		c.activeCyc++
		c.execute(cycle)
	} else if !c.finished {
		c.waitCyc++
	}

	// The PFU shares the CE's network port; it issues with whatever port
	// bandwidth the CE left unused this cycle.
	if c.pfu.Suspended() {
		c.pfu.Resume(c.pfu.PendingAddr())
	}
	c.pfu.Tick(cycle)
	if c.faulty && c.failErr == nil {
		if err := c.pfu.Err(); err != nil {
			c.fail(err, cycle)
		}
	}
}

func (c *CE) fetch(cycle int64) {
	if c.ctrl == nil {
		// A CE with no controller has no work: immediately finished, so
		// unassigned CEs do not hold up idleness detection.
		c.finished = true
		c.doneAt = cycle
		return
	}
	switch c.ctrl.Next(c.ID, cycle, &c.reg) {
	case Finished:
		c.finished = true
		c.doneAt = cycle
	case Wait:
	case Ready:
		c.cur = &c.reg
		c.started = false
	}
}

// retire ends the current instruction, then fires its Done with value 0.
func (c *CE) retire(cycle int64) {
	done := c.cur.Done
	c.cur = nil
	if done != nil {
		done(c.ID, 0, false, cycle)
	}
	// Allow back-to-back fetch next tick (1-cycle issue overhead).
}

// complete fires the current load's or sync's Done with the value it
// returned, while the instruction is still in progress.
func (c *CE) complete(value int64, passed bool, cycle int64) {
	if done := c.cur.Done; done != nil {
		done(c.ID, value, passed, cycle)
	}
}

// execute advances the current instruction by one cycle. Panics on an
// unknown opcode — a corrupt program is a controller bug, not a runtime
// condition a simulation should survive.
func (c *CE) execute(cycle int64) {
	switch c.cur.Op {
	case OpScalar:
		if !c.started {
			c.started = true
			c.busyUntil = cycle + c.cur.Cycles
		}
		if cycle >= c.busyUntil {
			c.flops += c.cur.Flops
			c.retire(cycle)
		}

	case OpGlobalLoad, OpSync:
		c.execScalarGlobal(cycle)

	case OpGlobalStore:
		pkt := c.sh.pool.Get()
		pkt.Kind = network.WriteReq
		pkt.Src = c.Port
		pkt.Dst = c.modFor(c.cur.Addr)
		pkt.Addr = c.cur.Addr
		pkt.Value = c.cur.Value
		pkt.Tag = tagKindStore
		pkt.Issue = cycle
		if c.offerStore(pkt) {
			c.retire(cycle)
		} else {
			c.sh.pool.Put(pkt)
		}

	case OpFence:
		if c.storesOutstanding == 0 && c.pendingStores.Head() == nil {
			c.retire(cycle)
		}

	case OpClusterLoad:
		if !c.started {
			c.started = true
			c.scalarBack = false
			ok := c.cache.Submit(c.IDInCluster, c.cur.Addr, false, 0, c, tagKindLoad)
			if !ok {
				c.started = false
			}
		} else if c.scalarBack && cycle >= c.scalarDoneAt {
			c.complete(0, true, cycle)
			c.cur = nil
		}

	case OpClusterStore:
		if c.cache.Submit(c.IDInCluster, c.cur.Addr, true, c.cur.Value, nil, 0) {
			c.retire(cycle)
		}

	case OpVector:
		if !c.started {
			c.started = true
			c.startVector(cycle)
		}
		c.execVector(cycle)

	default:
		panic(fmt.Sprintf("ce: unknown op %d", c.cur.Op))
	}
}

func (c *CE) execScalarGlobal(cycle int64) {
	if !c.issuedScalar {
		pkt := c.sh.pool.Get()
		pkt.Src = c.Port
		pkt.Dst = c.modFor(c.cur.Addr)
		pkt.Addr = c.cur.Addr
		pkt.Issue = cycle
		if c.cur.Op == OpSync {
			pkt.Kind = network.SyncReq
			pkt.Value = c.cur.Value
			pkt.Test = c.cur.Test
			pkt.Mut = c.cur.Mut
			pkt.TestArg = c.cur.TestArg
			pkt.Tag = tagKindSync
		} else {
			pkt.Kind = network.ReadReq
			pkt.Tag = tagKindLoad
		}
		if c.fwd.Offer(pkt) {
			c.issuedScalar = true
			c.scalarBack = false
		} else {
			c.sh.pool.Put(pkt)
		}
		return
	}
	if c.scalarBack && cycle >= c.scalarDoneAt {
		c.issuedScalar = false
		c.complete(c.scalarVal, c.scalarPassed, cycle)
		c.flops += c.cur.Flops
		c.cur = nil
	}
}

// drainReplies dispatches everything waiting on the reverse port.
// Returning prefetch words land in the 512-word prefetch buffer and other
// replies in dedicated registers, so the port drains without back-pressure
// (the CE-side transfer time is modeled as availability delay instead).
// Consumed packets retire to the machine's pool — a reply is the rewritten
// request, so this port is the end of the packet lifecycle. Panics on a
// reply tag no unit claims: that is a routing bug, not a runtime
// condition.
func (c *CE) drainReplies(cycle int64) {
	for {
		pkt := c.rev.Poll(c.Port)
		if pkt == nil {
			return
		}
		if c.pfu.Deliver(pkt, cycle) {
			c.sh.pool.Put(pkt)
			continue
		}
		switch pkt.Tag & tagKindMask {
		case tagKindStore:
			c.storesOutstanding--
		case tagKindLoad, tagKindSync:
			c.scalarBack = true
			c.scalarVal = pkt.Value
			c.scalarPassed = pkt.TestPassed
			c.scalarDoneAt = cycle + int64(c.p.CELoadOverhead)
		case tagKindVec:
			si := int(pkt.Tag>>16) & 0xfff
			el := int(pkt.Tag & 0xffff)
			vs := &c.vec
			if si < len(vs.streams) && el < len(vs.streams[si].avail) {
				t := cycle + int64(c.p.CELoadOverhead)
				vs.streams[si].avail[el] = t
				// The CE's outstanding-request slot frees when the load
				// completes into a register (the full 13-cycle latency),
				// not when the packet leaves the network — this is what
				// pins GM/no-pref at 2 requests per 13 cycles.
				vs.freeAt = append(vs.freeAt, t)
			}
		default:
			panic(fmt.Sprintf("ce%d: unmatched reply %v", c.ID, pkt))
		}
		c.sh.pool.Put(pkt)
	}
}

// CacheDone implements cache.Sink: a cluster-cache access submitted by
// this CE completed at cycle at. The tag's kind bits name the operation
// that issued it; vector tags carry the stream and element like their
// global-memory counterparts.
func (c *CE) CacheDone(tag uint64, at int64) {
	switch uint32(tag) & tagKindMask {
	case tagKindLoad:
		c.scalarBack = true
		c.scalarDoneAt = at
	case tagKindVec:
		si := int(tag>>16) & 0xfff
		el := int(tag & 0xffff)
		vs := &c.vec
		if si < len(vs.streams) {
			st := &vs.streams[si]
			if el < len(st.avail) {
				st.avail[el] = at
			}
			st.clusterInFlight--
		}
	}
	// The cache ticks after the CEs, so the completion is actionable on the
	// next cycle; the engine clamps the wake accordingly.
	c.wake.Wake(at)
}

// offerStore issues a store, or queues it behind the stores the fabric
// refused; it reports false, and keeps nothing, when the queue is full.
func (c *CE) offerStore(pkt *network.Packet) bool {
	// Only with no refused store waiting may a store pass them: stores
	// reach the fabric in order.
	if c.pendingStores.Head() == nil && c.fwd.Offer(pkt) {
		c.storesOutstanding++
		return true
	}
	if !c.pendingStores.CanAccept(pkt.Words(), storePendingCap*network.WriteReq.WireWords()) {
		return false
	}
	c.pendingStores.Push(pkt)
	return true
}

// storePendingCap is how many refused stores a CE holds.
const storePendingCap = 8

// offerVecStore issues one vector-element global store.
func (c *CE) offerVecStore(addr uint64, cycle int64) bool {
	pkt := c.sh.pool.Get()
	pkt.Kind = network.WriteReq
	pkt.Src = c.Port
	pkt.Dst = c.modFor(addr)
	pkt.Addr = addr
	pkt.Tag = tagKindStore
	pkt.Issue = cycle
	if c.offerStore(pkt) {
		return true
	}
	c.sh.pool.Put(pkt)
	return false
}

// retryStores offers the refused stores, oldest first, until the fabric
// refuses one again. A store leaves the queue before it is offered, since
// the fabric's queue links it through the same field.
func (c *CE) retryStores() {
	for pkt := c.pendingStores.Pop(); pkt != nil; pkt = c.pendingStores.Pop() {
		if !c.fwd.Offer(pkt) {
			c.pendingStores.PushFront(pkt)
			return
		}
		c.storesOutstanding++
	}
}

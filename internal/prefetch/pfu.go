// Package prefetch models Cedar's per-CE data prefetch unit (PFU).
//
// The PFU masks the long global-memory latency and overcomes the limit of
// two outstanding requests per Alliant CE. It is "armed" with the length,
// stride and mask of a vector and "fired" with the physical address of the
// first word. It then issues up to 512 requests without pausing; data
// returns — possibly out of order because of memory and network conflicts
// — into a 512-word prefetch buffer whose full/empty bit per word lets the
// CE consume the data in request order without waiting for the whole block.
// When the next address would cross a 4 KB page boundary the PFU suspends
// until the processor supplies the first address of the new page, because
// the PFU only handles physical addresses. Arming again invalidates the
// buffer.
//
// The host-side buffer is sized by the blocks a run arms, not by the
// 512-word capacity: it grows to the longest block armed so far, and each
// Arm clears only that block's slots. The block's arrival record exists
// only on a PFU a monitor observes (DESIGN.md, "Demand-materialised
// state").
package prefetch

import (
	"errors"
	"fmt"

	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// TagBit marks network packet tags owned by a PFU, letting the CE dispatch
// replies arriving on the shared network port. It aliases the network
// package's definition because the memory modules and fault layer must
// recognize prefetch traffic too.
const TagBit = network.PrefetchTagBit

// BlockObserver receives one record per fired prefetch block, mirroring
// what Cedar's external hardware monitor captured: the cycle the first
// address was issued to the forward network and the cycle each datum
// returned from the reverse network. arrivals is the PFU's own record,
// in arrival order, reused for the next block: an observer must neither
// modify it nor retain it past the call. Only a PFU with an observer keeps
// the record.
type BlockObserver func(firstIssue int64, arrivals []int64)

// BlockTracer receives a block's lifetime: the cycle its first address was
// issued and the latest cycle a datum of it returned, with the id its PFU
// was given in SetTracer. One tracer serves every PFU of a machine, so
// observing n PFUs costs the host no closure per PFU, and no arrival
// record either.
type BlockTracer interface {
	Block(id int, firstIssue, lastArrival int64)
}

type slot struct {
	full    bool
	value   int64
	arrival int64

	// Retry bookkeeping (used only under fault injection).
	addr     uint64 // issued physical address, for reissue
	inflight bool   // a request for this element is in the network
	tries    int    // reissues so far
}

// PFU is one CE's prefetch unit.
type PFU struct {
	p       limits
	port    int
	fwd     network.Fabric
	modFor  func(addr uint64) int
	pool    *network.PacketPool
	observe BlockObserver
	// tracer, when set, sees every block after observe (the observability
	// hub's prefetch-block spans), as PFU traceID.
	tracer  BlockTracer
	traceID int

	// buf holds the armed block's slots: len(buf) is the longest block
	// armed so far, and only buf[:length] is live.
	buf   []slot
	epoch uint32

	armed       bool
	fired       bool
	length      int
	stride      int64
	mask        []bool
	nextAddr    uint64
	issuedIdx   int // next element index to issue
	outstanding int
	suspended   bool

	firstIssue int64
	// lastArrival is the latest cycle a datum of the block returned (-1:
	// none yet). arrivals records every arrival cycle in arrival order,
	// but only under an observer, which alone reads it; its capacity
	// grows to the longest block armed, so Deliver never grows it.
	lastArrival int64
	arrivals    []int64

	consumeIdx int

	// Fault recovery: armed only when the machine's fault plan can
	// generate recoverable faults (NACKs, link drops). Healthy machines
	// never touch any of it, so their schedules are bit-identical to a
	// build without this machinery.
	//
	// Both queues grow by append and are emptied, not freed, by Arm, so a
	// faulted run pays a logarithmic number of growths per PFU, not one
	// per fault: retryQ holds an element at most once (it enters when its
	// request is NACKed or times out, and leaves when reissued), so at
	// most the block length, ≤ PFUBufferWords; timeoutQ gains one entry
	// per issue, at most one a cycle, and each leaves retryTimeout cycles
	// later, so at most retryTimeout. bench's
	// TestFaultRecoveryCostsNoObjectPerFault derives its slack from this.
	retryArmed bool
	retryQ     []retryEntry // elements awaiting reissue after backoff
	timeoutQ   []timeoutEntry
	err        error

	stats Stats
}

// limits is what a PFU reads of params.Machine. A PFU keeps these four
// constants, not a copy of the whole parameter set: a copy is 272 bytes on
// every CE of every machine built.
type limits struct {
	BufferWords    int
	MaxOutstanding int
	PageWords      int
	CELoadOverhead int
}

// retryEntry schedules one element reissue no earlier than cycle at.
type retryEntry struct {
	idx int
	at  int64
}

// timeoutEntry watches one in-flight request. The timeout is uniform,
// so entries are appended in deadline order and the queue pops from
// the front; stale entries (the reply arrived, or the element was
// already NACKed and rescheduled) are skipped on pop.
type timeoutEntry struct {
	idx      int
	deadline int64
}

// Retry policy: a NACKed or timed-out element is reissued after a
// deterministic exponential backoff, retryBase cycles doubling per
// attempt, up to retryMax attempts before the PFU declares the element
// unreachable and fails the block.
const (
	retryBase    = 16
	retryMax     = 6
	retryTimeout = 2048 // cycles before an unanswered request is presumed lost
)

// Stats holds cumulative PFU counters.
type Stats struct {
	Blocks     int64 // blocks fired
	Issued     int64 // requests issued to the network
	Returned   int64 // words returned to the buffer
	Dropped    int64 // stale replies discarded after re-arm
	Suspends   int64 // page-crossing suspensions
	RefusedCyc int64 // cycles an issue was refused by network back-pressure
	Nacks      int64 // NACK replies received (fault injection)
	Timeouts   int64 // requests presumed lost after retryTimeout cycles
	Retries    int64 // element reissues
}

// New builds a PFU for the CE on the given forward-network port. modFor
// maps a word address to its memory module (egress port). pool recycles
// issued packets — pass the pool the CE draining the shared port retires
// replies into (a machine's one pool); nil gets a private pool.
func New(p params.Machine, port int, fwd network.Fabric, modFor func(uint64) int, pool *network.PacketPool) *PFU {
	if pool == nil {
		pool = &network.PacketPool{}
	}
	return &PFU{
		p: limits{
			BufferWords:    p.PFUBufferWords,
			MaxOutstanding: p.PFUMaxOutstanding,
			PageWords:      p.PageWords,
			CELoadOverhead: p.CELoadOverhead,
		},
		port:   port,
		fwd:    fwd,
		modFor: modFor,
		pool:   pool,
	}
}

// SetObserver installs the hardware-monitor hook.
func (u *PFU) SetObserver(o BlockObserver) { u.observe = o }

// SetTracer installs a block tracer beside the observer, which sees every
// block as PFU id; nil removes it.
func (u *PFU) SetTracer(t BlockTracer, id int) { u.tracer, u.traceID = t, id }

// Stats returns cumulative counters.
func (u *PFU) Stats() Stats { return u.stats }

// ArmRetry enables the NACK/timeout recovery machinery. Machines call
// it when their fault plan can generate recoverable faults; it stays
// off otherwise so healthy schedules are untouched.
func (u *PFU) ArmRetry() { u.retryArmed = true }

// Err returns the terminal fault error, set when an element exhausted
// its retry budget. The CE surfaces it as a degraded-run result.
func (u *PFU) Err() error { return u.err }

// Outstanding returns the requests currently in flight to memory — an
// occupancy gauge for the observability hub.
func (u *PFU) Outstanding() int { return u.outstanding }

// Arm prepares a prefetch of length words with the given stride (in words).
// mask may be nil (all elements) or length bools selecting elements.
// Arming invalidates the buffer: outstanding replies from earlier blocks
// will be dropped on return.
func (u *PFU) Arm(length int, stride int64, mask []bool) error {
	if length < 1 || length > u.p.BufferWords {
		return fmt.Errorf("prefetch: block length %d outside 1..%d", length, u.p.BufferWords)
	}
	if mask != nil && len(mask) != length {
		return fmt.Errorf("prefetch: mask length %d != block length %d", len(mask), length)
	}
	u.flushBlock()
	u.epoch++
	u.armed = true
	u.fired = false
	u.suspended = false
	u.length = length
	u.stride = stride
	u.mask = mask
	u.issuedIdx = 0
	u.consumeIdx = 0
	u.outstanding = 0
	u.lastArrival = -1
	u.arrivals = u.arrivals[:0]
	u.retryQ = u.retryQ[:0]
	u.timeoutQ = u.timeoutQ[:0]
	u.err = nil
	if length > len(u.buf) {
		u.buf = make([]slot, length) // first touch: ≤ PFUBufferWords slots per run
	} else {
		clear(u.buf[:length])
	}
	if u.observe != nil && length > cap(u.arrivals) {
		// A block records at most one arrival per element.
		u.arrivals = make([]int64, 0, length)
	}
	return nil
}

// Fire rejection errors, allocated once: Fire sits on the per-cycle
// re-arm path, so even its failure modes must not construct errors.
var (
	ErrNotArmed     = errors.New("prefetch: Fire without Arm")
	ErrAlreadyFired = errors.New("prefetch: already fired")
)

// Fire starts the armed prefetch at the given physical word address. The
// first request is issued on the next Tick.
func (u *PFU) Fire(addr uint64) error {
	if !u.armed {
		return ErrNotArmed
	}
	if u.fired {
		return ErrAlreadyFired
	}
	u.fired = true
	u.nextAddr = addr
	u.firstIssue = -1
	u.stats.Blocks++
	return nil
}

// Suspended reports whether the PFU is paused at a page boundary, waiting
// for the processor to supply the first address in the new page.
func (u *PFU) Suspended() bool { return u.suspended }

// PendingAddr returns the virtual continuation address that triggered a
// page-crossing suspension; the processor translates it and passes the
// physical address to Resume.
func (u *PFU) PendingAddr() uint64 { return u.nextAddr }

// Resume supplies the physical address of the new page after a page
// crossing suspension.
func (u *PFU) Resume(addr uint64) {
	if !u.suspended {
		return
	}
	u.suspended = false
	u.nextAddr = addr
}

// Done reports whether every element of the fired block has been issued
// and returned (with no reissues still owed).
func (u *PFU) Done() bool {
	return !u.fired || (u.issuedIdx >= u.length && u.outstanding == 0 && len(u.retryQ) == 0)
}

// Busy reports whether requests are outstanding or still to issue.
func (u *PFU) Busy() bool { return u.fired && !u.Done() }

// NextWakeup reports the earliest cycle the PFU needs its CE's tick:
// every cycle while it can issue (or must be resumed from a page-crossing
// suspension), the earliest timeout or retry deadline otherwise. Phases
// that only await replies sleep — the reverse port wakes the CE.
func (u *PFU) NextWakeup(now int64) int64 {
	if !u.fired {
		return sim.Never
	}
	if u.suspended {
		return now // the CE resumes a suspended PFU on its next tick
	}
	w := sim.Never
	if u.issuedIdx < u.length {
		if u.mask != nil && !u.mask[u.issuedIdx] {
			return now // masked elements are marked consumable by ticking
		}
		if u.outstanding < u.p.MaxOutstanding {
			return now // an issue (or its refusal) is attempted every cycle
		}
		// Port saturated: a reply must free a slot first.
	}
	if u.retryArmed {
		if len(u.timeoutQ) > 0 && u.timeoutQ[0].deadline < w {
			w = u.timeoutQ[0].deadline
		}
		for _, e := range u.retryQ {
			if e.at < w {
				w = e.at
			}
		}
	}
	if w < now {
		return now
	}
	return w
}

// NextConsumableAt reports when the next in-order element clears the
// CE-side transfer pipeline. ok is false when the word has not arrived
// (its delivery on the reverse port wakes the CE) or the block is drained.
func (u *PFU) NextConsumableAt() (int64, bool) {
	if u.consumeIdx >= u.length {
		return 0, false
	}
	s := &u.buf[u.consumeIdx]
	if !s.full {
		return 0, false
	}
	return s.arrival + int64(u.p.CELoadOverhead), true
}

// Tick issues at most one request into the forward network (the PFU shares
// the CE's single network port; the fabric's ingress serialization
// arbitrates between them).
func (u *PFU) Tick(cycle int64) {
	if !u.fired || u.suspended {
		return
	}
	if u.retryArmed {
		u.expireTimeouts(cycle)
		// Reissues share the single port with fresh issues and go first:
		// the CE consumes in request order, so the oldest missing element
		// gates progress.
		if u.reissue(cycle) {
			return
		}
	}
	for u.issuedIdx < u.length && u.mask != nil && !u.mask[u.issuedIdx] {
		// Masked-off elements are never fetched; mark them consumable.
		u.buf[u.issuedIdx].full = true
		u.buf[u.issuedIdx].arrival = cycle
		u.issuedIdx++
	}
	if u.issuedIdx >= u.length {
		return
	}
	if u.outstanding >= u.p.MaxOutstanding {
		return
	}
	addr := u.nextAddr
	if !u.issueElement(u.issuedIdx, addr, cycle) {
		return
	}
	u.stats.Issued++
	u.issuedIdx++
	if u.issuedIdx < u.length {
		next := uint64(int64(addr) + u.stride)
		if next/uint64(u.p.PageWords) != addr/uint64(u.p.PageWords) {
			u.suspended = true
			u.stats.Suspends++
		}
		u.nextAddr = next
	}
}

// issueElement offers one element read to the forward network and books
// the retry state on success.
func (u *PFU) issueElement(idx int, addr uint64, cycle int64) bool {
	pkt := u.pool.Get()
	pkt.Kind = network.ReadReq
	pkt.Src = u.port
	pkt.Dst = u.modFor(addr)
	pkt.Addr = addr
	pkt.Tag = TagBit | (u.epoch&0x7fff)<<16 | uint32(idx)
	pkt.Issue = cycle
	if !u.fwd.Offer(pkt) {
		u.stats.RefusedCyc++
		u.pool.Put(pkt)
		return false
	}
	if u.firstIssue < 0 {
		u.firstIssue = cycle
	}
	u.outstanding++
	s := &u.buf[idx]
	s.addr = addr
	s.inflight = true
	if u.retryArmed {
		u.timeoutQ = append(u.timeoutQ, timeoutEntry{idx: idx, deadline: cycle + retryTimeout})
	}
	return true
}

// expireTimeouts reschedules in-flight requests presumed lost.
func (u *PFU) expireTimeouts(cycle int64) {
	for len(u.timeoutQ) > 0 && u.timeoutQ[0].deadline <= cycle {
		e := u.timeoutQ[0]
		copy(u.timeoutQ, u.timeoutQ[1:])
		u.timeoutQ = u.timeoutQ[:len(u.timeoutQ)-1]
		s := &u.buf[e.idx]
		if s.full || !s.inflight {
			continue // answered, or already NACKed and rescheduled
		}
		s.inflight = false
		u.outstanding--
		u.stats.Timeouts++
		u.scheduleRetry(e.idx, cycle)
	}
}

// reissue sends the first due retry; it reports whether the port was
// consumed (by a reissue or its refusal).
func (u *PFU) reissue(cycle int64) bool {
	for qi := range u.retryQ {
		e := u.retryQ[qi]
		if e.at > cycle {
			continue
		}
		if u.buf[e.idx].full {
			// The "lost" reply arrived after all; drop the retry.
			copy(u.retryQ[qi:], u.retryQ[qi+1:])
			u.retryQ = u.retryQ[:len(u.retryQ)-1]
			return false
		}
		if u.outstanding >= u.p.MaxOutstanding {
			return false
		}
		if !u.issueElement(e.idx, u.buf[e.idx].addr, cycle) {
			return true // port refused; retry stays queued
		}
		u.stats.Retries++
		copy(u.retryQ[qi:], u.retryQ[qi+1:])
		u.retryQ = u.retryQ[:len(u.retryQ)-1]
		return true
	}
	return false
}

// scheduleRetry books an element reissue after exponential backoff, or
// fails the block when the retry budget is exhausted.
func (u *PFU) scheduleRetry(idx int, cycle int64) {
	s := &u.buf[idx]
	s.tries++
	if s.tries > retryMax {
		u.err = fmt.Errorf("prefetch: element %d unreachable after %d retries (addr %#x)",
			idx, retryMax, s.addr)
		u.fired = false // give up the block; Busy() turns false
		return
	}
	backoff := int64(retryBase) << (s.tries - 1)
	u.retryQ = append(u.retryQ, retryEntry{idx: idx, at: cycle + backoff})
}

// Deliver hands the PFU a reply polled from the reverse network by its CE.
// It reports whether the packet belonged to this PFU.
func (u *PFU) Deliver(pkt *network.Packet, cycle int64) bool {
	if pkt.Tag&TagBit == 0 {
		return false
	}
	epoch := (pkt.Tag &^ TagBit) >> 16
	idx := int(pkt.Tag & 0xffff)
	if epoch != u.epoch&0x7fff || idx >= u.length {
		u.stats.Dropped++ // stale reply from an invalidated block
		return true
	}
	s := &u.buf[idx]
	if pkt.Kind == network.NackReply {
		// The module refused service; back off and reissue.
		if s.full || !s.inflight {
			u.stats.Dropped++ // the element already made it another way
			return true
		}
		s.inflight = false
		u.outstanding--
		u.stats.Nacks++
		u.scheduleRetry(idx, cycle)
		return true
	}
	if s.full {
		u.stats.Dropped++
		return true
	}
	s.full = true
	s.value = pkt.Value
	s.arrival = cycle
	if s.inflight {
		s.inflight = false
		u.outstanding--
	}
	u.stats.Returned++
	u.lastArrival = max(u.lastArrival, cycle)
	if u.observe != nil {
		u.arrivals = append(u.arrivals, cycle)
	}
	return true
}

// TryConsume returns the next element in request order if it has arrived
// and cleared the CE-side transfer pipeline (CELoadOverhead cycles).
func (u *PFU) TryConsume(cycle int64) (int64, bool) {
	if u.consumeIdx >= u.length {
		return 0, false
	}
	s := &u.buf[u.consumeIdx]
	if !s.full || cycle < s.arrival+int64(u.p.CELoadOverhead) {
		return 0, false
	}
	u.consumeIdx++
	return s.value, true
}

// Consumed reports how many elements the CE has taken from the buffer.
func (u *PFU) Consumed() int { return u.consumeIdx }

// flushBlock reports the completed (or abandoned) block to the observer
// and the tracer, if any datum of it returned.
func (u *PFU) flushBlock() {
	if u.fired && u.firstIssue >= 0 && u.lastArrival >= 0 {
		if u.observe != nil {
			u.observe(u.firstIssue, u.arrivals)
		}
		if u.tracer != nil {
			u.tracer.Block(u.traceID, u.firstIssue, u.lastArrival)
		}
	}
	u.fired = false
}

// Finish flushes monitor data for the current block once Done; call it
// before reusing the PFU for an unrelated block without re-arming.
func (u *PFU) Finish() {
	if u.Done() {
		u.flushBlock()
	}
}

package prefetch

import (
	"fmt"

	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// refPFU is the PFU as it was before its buffer shrank to a word and its
// arrival: a slot carrying a full flag, the arrival cycle and every
// element's retry bookkeeping, on every PFU whether or not fault recovery
// is armed, less only the prefetched word, which no caller reads. It is kept, like the network package's
// scan omega, as the definition the production PFU must reproduce call
// for call; TestPFUMatchesReference drives both. Only the block tracer is
// left out: it reads lastArrival, which the observer's record covers.
// One input is deliberately never given to both: a NACK at an unarmed
// PFU, which this copy queues for a retry nothing ever reissues and the
// production PFU rejects as a wiring bug.
type refPFU struct {
	p       limits
	port    int
	fwd     network.Fabric
	modFor  func(addr uint64) int
	pool    *network.PacketPool
	observe BlockObserver

	buf   []refSlot
	epoch uint32

	armed       bool
	fired       bool
	length      int
	stride      int64
	mask        []bool
	nextAddr    uint64
	issuedIdx   int
	outstanding int
	suspended   bool

	firstIssue  int64
	lastArrival int64
	arrivals    []int64

	consumeIdx int

	retryArmed bool
	retryQ     []retryEntry
	timeoutQ   []timeoutEntry
	err        error

	stats Stats
}

type refSlot struct {
	full    bool
	arrival int64

	// Retry bookkeeping (used only under fault injection).
	addr     uint64 // issued physical address, for reissue
	inflight bool   // a request for this element is in the network
	tries    int    // reissues so far
}

func newRefPFU(p params.Machine, port int, fwd network.Fabric, modFor func(uint64) int, pool *network.PacketPool) *refPFU {
	return &refPFU{
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
func (u *refPFU) SetObserver(o BlockObserver) { u.observe = o }

// Stats returns cumulative counters.
func (u *refPFU) Stats() Stats { return u.stats }

// ArmRetry enables the NACK/timeout recovery machinery. Machines call
// it when their fault plan can generate recoverable faults; it stays
// off otherwise so healthy schedules are untouched.
func (u *refPFU) ArmRetry() { u.retryArmed = true }

// Err returns the terminal fault error, set when an element exhausted
// its retry budget. The CE surfaces it as a degraded-run result.
func (u *refPFU) Err() error { return u.err }

// Outstanding returns the requests currently in flight to memory — an
// occupancy gauge for the observability hub.
func (u *refPFU) Outstanding() int { return u.outstanding }

// Arm prepares a prefetch of length words with the given stride (in words).
// mask may be nil (all elements) or length bools selecting elements.
// Arming invalidates the buffer: outstanding replies from earlier blocks
// will be dropped on return.
func (u *refPFU) Arm(length int, stride int64, mask []bool) error {
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
		u.buf = make([]refSlot, length) // first touch: ≤ PFUBufferWords slots per run
	} else {
		clear(u.buf[:length])
	}
	if u.observe != nil && length > cap(u.arrivals) {
		// A block records at most one arrival per element.
		u.arrivals = make([]int64, 0, length)
	}
	return nil
}

// Fire starts the armed prefetch at the given physical word address. The
// first request is issued on the next Tick.
func (u *refPFU) Fire(addr uint64) error {
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
func (u *refPFU) Suspended() bool { return u.suspended }

// PendingAddr returns the virtual continuation address that triggered a
// page-crossing suspension; the processor translates it and passes the
// physical address to Resume.
func (u *refPFU) PendingAddr() uint64 { return u.nextAddr }

// Resume supplies the physical address of the new page after a page
// crossing suspension.
func (u *refPFU) Resume(addr uint64) {
	if !u.suspended {
		return
	}
	u.suspended = false
	u.nextAddr = addr
}

// Done reports whether every element of the fired block has been issued
// and returned (with no reissues still owed).
func (u *refPFU) Done() bool {
	return !u.fired || (u.issuedIdx >= u.length && u.outstanding == 0 && len(u.retryQ) == 0)
}

// Busy reports whether requests are outstanding or still to issue.
func (u *refPFU) Busy() bool { return u.fired && !u.Done() }

// NextWakeup reports the earliest cycle the PFU needs its CE's tick:
// every cycle while it can issue (or must be resumed from a page-crossing
// suspension), the earliest timeout or retry deadline otherwise. Phases
// that only await replies sleep — the reverse port wakes the CE.
func (u *refPFU) NextWakeup(now int64) int64 {
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
func (u *refPFU) NextConsumableAt() (int64, bool) {
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
func (u *refPFU) Tick(cycle int64) {
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
func (u *refPFU) issueElement(idx int, addr uint64, cycle int64) bool {
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
func (u *refPFU) expireTimeouts(cycle int64) {
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
func (u *refPFU) reissue(cycle int64) bool {
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
func (u *refPFU) scheduleRetry(idx int, cycle int64) {
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
func (u *refPFU) Deliver(pkt *network.Packet, cycle int64) bool {
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

// TryConsume takes the next element in request order if it has arrived
// and cleared the CE-side transfer pipeline (CELoadOverhead cycles), and
// reports whether it could.
func (u *refPFU) TryConsume(cycle int64) bool {
	if u.consumeIdx >= u.length {
		return false
	}
	s := &u.buf[u.consumeIdx]
	if !s.full || cycle < s.arrival+int64(u.p.CELoadOverhead) {
		return false
	}
	u.consumeIdx++
	return true
}

// Consumed reports how many elements the CE has taken from the buffer.
func (u *refPFU) Consumed() int { return u.consumeIdx }

// flushBlock reports the completed (or abandoned) block to the observer,
// if any datum of it returned.
func (u *refPFU) flushBlock() {
	if u.fired && u.firstIssue >= 0 && u.lastArrival >= 0 {
		if u.observe != nil {
			u.observe(u.firstIssue, u.arrivals)
		}
	}
	u.fired = false
}

// Finish flushes monitor data for the current block once Done; call it
// before reusing the PFU for an unrelated block without re-arming.
func (u *refPFU) Finish() {
	if u.Done() {
		u.flushBlock()
	}
}

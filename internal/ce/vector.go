package ce

import (
	"fmt"

	"cedar/internal/network"
	"cedar/internal/sim"
)

// MaxUnprefetched is the longest unprefetched memory stream a vector
// instruction may carry: the CE tags each element's request in 16 bits.
const MaxUnprefetched = 0xffff

// startVector initializes stream state for the current OpVector. The
// stream and availability slices are reused across instructions: per CE,
// the stream slice grows once to the widest instruction, carved from the
// machine's stream slab (Shared), and a stream's availability record once
// to the longest unprefetched vector in its position, then they stay put,
// keeping this per-instruction path off the allocator. A prefetched
// stream keeps no availability record: its words land in the PFU buffer,
// whose full bits are the record. Panics if the instruction is malformed
// (N < 1, an unprefetched memory stream longer than the 16-bit element
// tag space, prefetch on a non-global stream, or more than one prefetched
// stream) — controller bugs, not runtime conditions.
func (c *CE) startVector(cycle int64) {
	in := c.cur
	if in.N < 1 {
		panic("ce: vector with N < 1")
	}
	vs := &c.vec
	streams := vs.streams[:0]
	freeAt := vs.freeAt[:0]
	*vs = vecState{
		dst:      in.Dst,
		n:        in.N,
		flopsPer: in.Flops,
		pipeFree: cycle,
	}
	vs.freeAt = freeAt
	if cap(streams) < len(in.Srcs) {
		streams = c.sh.streams.Take(len(in.Srcs)) // first touch, from the machine's stream slab: once per CE per wider instruction, then reused
	}
	vs.streams = streams[:len(in.Srcs)]
	prefs := 0
	for i, s := range in.Srcs {
		st := &vs.streams[i]
		avail := st.avail[:0]
		*st = streamState{s: s}
		if s.Space != SpaceNone && s.PrefBlock == 0 {
			if cap(avail) < in.N {
				avail = make([]int64, in.N) // first touch: once per CE and stream position per longer unprefetched vector, then reused
			}
			st.avail = avail[:in.N]
			for e := range st.avail {
				st.avail[e] = -1
			}
		} else {
			st.avail = avail // kept, empty, for the next stream in this position
		}
		if s.Space != SpaceNone && s.PrefBlock == 0 && in.N > MaxUnprefetched {
			panic("ce: unprefetched memory stream longer than 65535 elements; strip-mine or prefetch")
		}
		if s.PrefBlock > 0 {
			if s.Space != SpaceGlobal {
				panic("ce: prefetch on non-global stream")
			}
			prefs++
			if prefs > 1 {
				panic("ce: more than one prefetched stream (one PFU per CE)")
			}
			c.armBlock(st, 0, cycle)
		}
	}
}

// armBlock arms and fires the PFU for the block starting at element first.
// Panics if the PFU rejects the arm or the fire — the block geometry comes
// from the instruction, so a rejection is a controller bug.
func (c *CE) armBlock(st *streamState, first int, cycle int64) {
	n := st.s.PrefBlock
	if first+n > c.vec.n {
		n = c.vec.n - first
	}
	st.blockStart = first
	st.blockLen = n
	if err := c.pfu.Arm(n, st.s.Stride, nil); err != nil {
		panic(fmt.Sprintf("ce%d: arm: %v", c.ID, err))
	}
	addr := uint64(int64(st.s.Base) + st.s.Stride*int64(first))
	if err := c.pfu.Fire(addr); err != nil {
		panic(fmt.Sprintf("ce%d: fire: %v", c.ID, err))
	}
	// Arming costs a couple of pipeline cycles (the compiler's explicit
	// prefetch instruction immediately before the vector op).
	if c.vec.pipeFree < cycle {
		c.vec.pipeFree = cycle
	}
	c.vec.pipeFree += 2
}

// execVector advances the vector instruction one cycle: issue source
// requests, complete at most one element, and drain pending stores.
func (c *CE) execVector(cycle int64) {
	vs := &c.vec

	// Issue phase for each stream.
	for i := range vs.streams {
		c.issueStream(&vs.streams[i], i, cycle)
	}

	// Completion phase: one element per cycle through the vector pipe.
	if vs.completed < vs.n && vs.storesQueued < storePendingCap {
		e := vs.completed
		// Strip-mining: charge startup at each MaxVL boundary.
		if e%c.p.MaxVL == 0 && !vs.stripCharged {
			base := vs.pipeFree
			if base < cycle {
				base = cycle
			}
			vs.pipeFree = base + int64(c.p.VectorStartup)
			vs.stripCharged = true
		}
		// Pipe readiness is checked before operand readiness because
		// elementReady consumes a word from the PFU buffer as a side
		// effect; a consumed word must complete this cycle.
		if vs.pipeFree+1 <= cycle && c.elementReady(e, cycle) {
			vs.pipeFree = cycle
			vs.completed++
			vs.stripCharged = vs.completed%c.p.MaxVL != 0
			c.flops += vs.flopsPer
			if vs.dst != nil {
				vs.storesQueued++
			}
		}
	}

	// Store phase: issue queued element stores in order.
	c.issueVecStores(cycle)

	// Retirement: all elements completed and all stores issued.
	if vs.completed == vs.n && vs.storesQueued == 0 {
		c.pfu.Finish() // flush the last block to the performance monitor
		c.retire(cycle)
	}
}

// issueStream pushes source requests for a stream as capacity allows.
func (c *CE) issueStream(st *streamState, si int, cycle int64) {
	vs := &c.vec
	switch {
	case st.s.Space == SpaceNone:
		// Register operand: nothing to issue.

	case st.s.PrefBlock > 0:
		// The PFU issues autonomously; re-arm when the block is drained.
		if vs.completed >= st.blockStart+st.blockLen && st.blockStart+st.blockLen < vs.n {
			// All elements of the current block consumed; next block.
			c.armBlock(st, st.blockStart+st.blockLen, cycle)
		}

	case st.s.Space == SpaceGlobal:
		// Plain global loads: at most MaxOutstanding in flight per CE
		// (shared across streams), one issue per cycle through the port.
		keep := vs.freeAt[:0]
		for _, t := range vs.freeAt {
			if t > cycle {
				keep = append(keep, t)
			} else {
				vs.outstanding--
			}
		}
		vs.freeAt = keep
		if st.issued < vs.n && vs.outstanding < c.p.MaxOutstanding {
			e := st.issued
			addr := uint64(int64(st.s.Base) + st.s.Stride*int64(e))
			pkt := c.sh.pool.Get()
			pkt.Kind = network.ReadReq
			pkt.Src = c.Port
			pkt.Dst = c.modFor(addr)
			pkt.Addr = addr
			pkt.Tag = tagKindVec | uint32(si)<<16 | uint32(e&0xffff)
			pkt.Issue = cycle
			if c.fwd.Offer(pkt) {
				st.issued++
				vs.outstanding++
			} else {
				c.sh.pool.Put(pkt)
			}
		}

	case st.s.Space == SpaceCluster:
		// In-order submission through the cluster cache. The tag encodes
		// stream and element exactly like a global vector load's network
		// tag, and CacheDone routes the completion back to the element.
		if st.issued < vs.n && st.clusterInFlight < 4 {
			e := st.issued
			addr := uint64(int64(st.s.Base) + st.s.Stride*int64(e))
			tag := uint64(tagKindVec) | uint64(si)<<16 | uint64(e&0xffff)
			if c.cache.Submit(c.IDInCluster, addr, false, 0, c, tag) {
				st.issued++
				st.clusterInFlight++
			}
		}
	}
}

// vecWakeup reports the earliest cycle the running vector instruction
// needs a tick: issue opportunities and store drains want every cycle,
// slot expiries and operand availability give exact future cycles, and
// phases waiting only on in-flight operands sleep (replies and cache
// completions wake the CE by push).
func (c *CE) vecWakeup(now int64) int64 {
	vs := &c.vec
	if vs.storesQueued > 0 {
		return now // issueVecStores drains every cycle
	}
	w := sim.Never
	for i := range vs.streams {
		st := &vs.streams[i]
		switch {
		case st.s.Space == SpaceNone:
		case st.s.PrefBlock > 0:
			if vs.completed >= st.blockStart+st.blockLen && st.blockStart+st.blockLen < vs.n {
				return now // the next block re-arms on the next tick
			}
		case st.s.Space == SpaceGlobal:
			if st.issued < vs.n {
				if vs.outstanding < c.p.MaxOutstanding {
					return now // an issue is attempted every cycle
				}
				for _, t := range vs.freeAt {
					if t < w {
						w = t // an expiring slot enables the next issue
					}
				}
			}
		case st.s.Space == SpaceCluster:
			if st.issued < vs.n && st.clusterInFlight < 4 {
				return now // a submit is attempted every cycle
			}
		}
	}
	// Completion gate for the next element (the store queue is empty
	// here, so the storePendingCap gate cannot block).
	if vs.completed < vs.n {
		e := vs.completed
		if e%c.p.MaxVL == 0 && !vs.stripCharged {
			return now // the strip-startup charge books on the next tick
		}
		t := vs.pipeFree + 1
		ready := true
		for i := range vs.streams {
			st := &vs.streams[i]
			switch {
			case st.s.Space == SpaceNone:
			case st.s.PrefBlock > 0:
				if e < st.blockStart || e >= st.blockStart+st.blockLen {
					return now // block-boundary bookkeeping; a tick resolves it
				}
				if at, ok := c.pfu.NextConsumableAt(); !ok {
					ready = false // word in flight; its delivery wakes us
				} else if at > t {
					t = at
				}
			default:
				if st.avail[e] < 0 {
					ready = false // operand in flight; its completion wakes us
				} else if st.avail[e] > t {
					t = st.avail[e]
				}
			}
		}
		if ready && t < w {
			w = t
		}
	}
	return w
}

// elementReady reports whether every stream has element e available now.
func (c *CE) elementReady(e int, cycle int64) bool {
	for i := range c.vec.streams {
		st := &c.vec.streams[i]
		switch {
		case st.s.Space == SpaceNone:
		case st.s.PrefBlock > 0:
			// Checked at consumption via TryConsume; availability means
			// the PFU's next in-order word is this element and ready.
			if e < st.blockStart || e >= st.blockStart+st.blockLen {
				return false
			}
			if c.pfu.Consumed() != e-st.blockStart {
				return false
			}
			// Peek: we must not consume unless all other streams are
			// also ready, so defer the actual consume.
		default:
			if st.avail[e] < 0 || cycle < st.avail[e] {
				return false
			}
		}
	}
	// Now consume from the PFU if there is a prefetched stream.
	for i := range c.vec.streams {
		st := &c.vec.streams[i]
		if st.s.PrefBlock > 0 {
			if !c.pfu.TryConsume(cycle) {
				return false
			}
		}
	}
	return true
}

// issueVecStores drains the per-element store queue in order.
func (c *CE) issueVecStores(cycle int64) {
	vs := &c.vec
	for vs.storesQueued > 0 {
		e := vs.nextStoreEl
		d := vs.dst
		addr := uint64(int64(d.Base) + d.Stride*int64(e))
		var ok bool
		if d.Space == SpaceCluster {
			ok = c.cache.Submit(c.IDInCluster, addr, true, 0, nil, 0)
		} else {
			ok = c.offerVecStore(addr, cycle)
		}
		if !ok {
			return
		}
		vs.nextStoreEl++
		vs.storesQueued--
	}
}

// Package ccbus models the Alliant FX/8 concurrency control bus: the
// dedicated fork/join fabric connecting the eight CEs of one cluster.
//
// Concurrency control instructions implement fast fork, join and
// synchronization. A single "concurrent start" instruction spreads the
// iterations of a parallel loop from one CE to all CEs in the cluster by
// broadcasting the program counter and setting up private per-processor
// stacks — the whole cluster is gang-scheduled. CEs then self-schedule
// iterations among themselves with short bus transactions, which is why a
// CDOALL starts in a few microseconds while an XDOALL through global
// memory needs ≈90 µs.
//
// The bus is a serial resource: one transaction at a time. Timing is
// modeled by booking: a requester at cycle c is granted at
// max(c, busFree) and the bus is busy for the transaction cost.
package ccbus

import "cedar/internal/params"

// Bus is one cluster's concurrency control bus. A cluster holds it by
// value.
type Bus struct {
	p       timing
	nCE     int
	busFree int64

	// Current concurrent loop state.
	loopActive bool
	nextIter   int
	limit      int

	// Join/barrier state.
	joined  int
	genDone int64 // completion cycle of the current join generation
	gen     int64

	stats Stats
}

// Stats holds cumulative bus counters.
type Stats struct {
	Broadcasts int64
	Claims     int64
	Joins      int64
	WaitCyc    int64 // cycles requesters spent waiting for the bus
	// BusyCyc counts cycles the serialized bus was occupied by a booked
	// transaction. Bookings never overlap, so BusyCyc can exceed elapsed
	// cycles only by the tail of a transaction booked past the end of a
	// run.
	BusyCyc int64
}

// timing is what a bus reads of params.Machine. A bus keeps these three
// constants, not a copy of the whole parameter set: a copy is 272 bytes in
// every cluster of every machine built.
type timing struct {
	CDoallStart      int
	CCBusClaim       int
	BarrierClusterCy int
}

// New builds a bus for a cluster of nCE processors, by value for the
// caller to store where it lives.
func New(p params.Machine, nCE int) Bus {
	return Bus{
		p: timing{
			CDoallStart:      p.CDoallStart,
			CCBusClaim:       p.CCBusClaim,
			BarrierClusterCy: p.BarrierClusterCy,
		},
		nCE: nCE,
	}
}

// Stats returns cumulative counters.
func (b *Bus) Stats() Stats { return b.stats }

// book serializes a transaction of the given cost starting no earlier than
// cycle; it returns the completion cycle.
func (b *Bus) book(cycle int64, cost int) int64 {
	start := cycle
	if b.busFree > start {
		b.stats.WaitCyc += b.busFree - start
		start = b.busFree
	}
	b.busFree = start + int64(cost)
	b.stats.BusyCyc += int64(cost)
	return b.busFree
}

// ConcurrentStart broadcasts a parallel loop of n iterations to the
// cluster. It returns the cycle at which every CE has the loop (the
// "spread" is one broadcast, CDoallStart cycles). Iterations are then
// claimed with Claim.
func (b *Bus) ConcurrentStart(cycle int64, n int) int64 {
	b.stats.Broadcasts++
	b.loopActive = true
	b.nextIter = 0
	b.limit = n
	return b.book(cycle, b.p.CDoallStart)
}

// Claim self-schedules the next iteration: a short serialized bus
// transaction. It returns the iteration index (or -1 when the loop is
// exhausted) and the cycle at which the claim completes.
func (b *Bus) Claim(cycle int64) (iter int, at int64) {
	at = b.book(cycle, b.p.CCBusClaim)
	b.stats.Claims++
	if !b.loopActive || b.nextIter >= b.limit {
		return -1, at
	}
	iter = b.nextIter
	b.nextIter++
	return iter, at
}

// ClaimBlock claims up to chunk consecutive iterations in one transaction
// (static chunking uses this with chunk = ceil(n/nCE)). It returns the
// first iteration, the count claimed (0 when exhausted), and the
// completion cycle.
func (b *Bus) ClaimBlock(cycle int64, chunk int) (first, count int, at int64) {
	at = b.book(cycle, b.p.CCBusClaim)
	b.stats.Claims++
	if !b.loopActive || b.nextIter >= b.limit {
		return 0, 0, at
	}
	first = b.nextIter
	count = chunk
	if first+count > b.limit {
		count = b.limit - first
	}
	b.nextIter += count
	return first, count, at
}

// JoinArrive signals that a CE reached the join point. When the count
// completes the cluster, the join fires: the returned cycle is valid only
// on the completing call (ok true); other callers poll JoinDone with the
// generation they observed.
func (b *Bus) JoinArrive(cycle int64) (gen int64, done int64, ok bool) {
	b.joined++
	gen = b.gen
	if b.joined < b.nCE {
		return gen, 0, false
	}
	// Last arrival completes the join after a bus round.
	b.stats.Joins++
	b.joined = 0
	b.gen++
	b.genDone = b.book(cycle, b.p.BarrierClusterCy)
	b.loopActive = false
	return gen, b.genDone, true
}

// JoinDone reports whether join generation gen has completed by cycle, and
// if so when.
func (b *Bus) JoinDone(gen int64, cycle int64) (int64, bool) {
	if b.gen > gen && b.genDone <= cycle {
		return b.genDone, true
	}
	if b.gen > gen {
		return b.genDone, cycle >= b.genDone
	}
	return 0, false
}

package cfrt

import "cedar/internal/ce"

// step names a point in a participant's control flow: what the completion
// of a runtime-issued instruction does next. An instruction carries its
// step in N, a field only vector instructions read; Next notes it as the
// instruction goes to the CE, and the runtime's one Done hands it to
// advance. Steps that follow a wait (spinWait.then, frame.then) are the
// same codes: a wait ends by running, or by issuing a branch that carries,
// the step it was given.
type step uint8

const (
	stNone step = iota

	// Phase entry and the end-of-phase barrier.
	stPhaseEnter     // branch: post the phase entry
	stLoopStart      // the phase flag is up: start this participant's loop
	stBarrierArrive  // barrier fetch-add returned this arrival's rank
	stBarrierRelease // the last arrival's flag store retired
	stNextPhase      // the barrier flag is up

	// The wait in progress.
	stSpin // result of one attempt of c.wait.try

	// Iteration claims against the phase counter (gss.go).
	stClaimed       // Test-And-Add returned a ticket
	stLockHeld      // the claim lock is ours: read the counter
	stClaimRead     // counter value under the lock
	stClaimUnlocked // the unlock store retired: the ticket is ours
	stGuidedRead    // counter estimate on the Cedar-sync path
	stGuidedClaimed // fetch-add of the guided chunk returned its first iteration

	// Loop bodies.
	stIterDone    // loop branch behind an XDOALL iteration
	stClusterNext // branch behind a cluster-serial step
	stCDStart     // branch: broadcast the CDOALL on the bus

	// waitUntil and the CDOALL steps that follow one.
	stWaitUntil   // branch: stall until c.until, then branch to c.then
	stCDEnter     // the broadcast has landed: go and claim
	stCDClaim     // branch: claim an iteration or a block on the bus
	stCDRun       // the claim has landed: run [cdLo, cdHi)
	stCDIterDone  // loop branch behind a CDOALL iteration
	stCDJoinEnter // the loop is exhausted: go and join
	stCDJoin      // branch: arrive at the cluster join
	stCDDone      // the join is complete
)

// loopKind is the loop a participant's current phase runs.
type loopKind uint8

const (
	xdSelf loopKind = iota
	xdStatic
	xdGuided
	sdStatic
	sdClaimed
)

// watchKind is what a participant with an empty queue watches for on the
// concurrency control bus. Watching is free — the hardware wakes CEs
// directly — so it is a test in Next, not an instruction.
type watchKind uint8

const (
	watchNone watchKind = iota
	watchBus            // worker: a CDOALL broadcast, or the end of the cluster's SDOALL work
	watchJoin           // the join of generation joinGen completing
)

// frame is where a participant is in its program: one per participant,
// overwritten as control moves, never stacked — a Cedar Fortran loop nest
// is at most SDOALL → cluster phase → CDOALL deep and each level has its
// own fields. Every transfer of control the runtime makes — next
// iteration, next claim, next cluster phase, join, barrier — reads and
// writes these fields from advance; none builds a closure.
type frame struct {
	k    int      // current phase
	loop loopKind // and its loop
	n    int      // iterations of the phase's loop

	// XDOALL: the chunk [lo, hi) in progress.
	body   BodyFn
	lo, hi int
	// A claim in flight: the counter value read under the lock, and the
	// guided chunk being claimed.
	ticket int64
	chunk  int

	// SDOALL master: iteration iter is running cluster phase work[j].
	sbody func(iter int) []ClusterPhase
	iter  int
	work  []ClusterPhase
	j     int

	// The CDOALL in flight and the claimed block [cdLo, cdHi) of it.
	cd         CDoall
	cdLo, cdHi int
	watch      watchKind
	joinGen    int64

	// waitUntil: stall to cycle until, then run step then.
	until int64
	then  step
}

// advance runs step s of participant c: the one place a completion
// callback leads. v and passed are the instruction's result (zero for a
// retire), cy the cycle it completed. Panics on a code that names no step
// — an instruction built with the runtime's callback and no step is a
// runtime bug, not a runtime condition.
func (r *Runtime) advance(c *ceCtl, s step, v int64, passed bool, cy int64) {
	switch s {
	case stPhaseEnter:
		r.post(c.ci, cy, EvPhaseEnter, int64(c.k))

	case stLoopStart:
		r.startWork(c)

	case stBarrierArrive:
		r.post(c.ci, cy, EvBarrierArrive, int64(c.k))
		if v == int64(len(r.ces))-1 {
			// Last arrival releases the others.
			c.enq(ce.Instr{
				Op: ce.OpGlobalStore, Addr: r.res[c.k].barFlag, Value: 1,
				N: int(stBarrierRelease), Done: c.done,
			})
		} else {
			r.pollFlag(c, r.res[c.k].barFlag, 1, stNextPhase)
		}

	case stBarrierRelease:
		r.post(c.ci, cy, EvBarrierPass, int64(c.k))
		r.enterPhase(c, c.k+1)

	case stNextPhase:
		r.enterPhase(c, c.k+1)

	case stSpin:
		// The CE executes from its own register, so appending the same
		// instruction again from inside its completion is safe. The wait
		// is cleared before its step runs: the step may start the next
		// wait (a barrier pass leads straight to the next phase's flag
		// poll), which must not inherit this one's backoff or step.
		w := &c.wait
		if passed {
			then := w.then
			*w = spinWait{}
			r.advance(c, then, 0, false, cy)
			return
		}
		c.q = append(c.q, scalarInstr(w.backoff), w.try)
		if w.backoff *= 2; w.backoff > w.limit {
			w.backoff = w.limit
		}

	case stClaimed:
		r.post(c.ci, cy, EvClaim, v)
		r.claimed(c, v)

	case stLockHeld:
		c.enq(ce.Instr{
			Op: ce.OpGlobalLoad, Addr: r.res[c.k].counter,
			N: int(stClaimRead), Done: c.done,
		})

	case stClaimRead:
		r.claimUnderLock(c, v)

	case stClaimUnlocked:
		r.claimed(c, c.ticket)

	case stGuidedRead:
		r.guidedClaim(c, v)

	case stGuidedClaimed:
		r.claimed(c, v)

	case stIterDone:
		c.lo++
		r.runChunk(c)

	case stClusterNext:
		c.j++
		r.runClusterWork(c)

	case stCDStart:
		cs := c.cs
		at := cs.cl.Bus.ConcurrentStart(cy, c.cd.N)
		r.post(c.ci, cy, EvCDStart, int64(c.cd.N))
		cs.cd = c.cd
		cs.startAt = at
		cs.cdStartCy = cy
		cs.gen++
		r.waitUntil(c, at, stCDEnter)

	case stWaitUntil:
		if d := c.until - cy; d > 0 {
			c.enq(scalarInstr(d))
		}
		c.branch(c.then)

	case stCDEnter:
		c.branch(stCDClaim)

	case stCDClaim:
		r.cdClaim(c, cy)

	case stCDRun:
		r.runCDBlock(c)

	case stCDIterDone:
		c.cdLo++
		r.runCDBlock(c)

	case stCDJoinEnter:
		c.branch(stCDJoin)

	case stCDJoin:
		r.cdJoin(c, cy)

	case stCDDone:
		if r.ces[c.ci].IDInCluster != 0 {
			c.watch = watchBus
			return
		}
		c.j++
		r.runClusterWork(c)

	default:
		panic("cfrt: completion of an instruction that carries no step")
	}
}

// startLoop opens an XDOALL or an SDOALL master's loop, whose startup and
// scheduling run through global memory: the initiating processor pays the
// ≈90 µs library startup and then releases the machine by writing the
// phase flag, which everyone else polls.
func (r *Runtime) startLoop(c *ceCtl) {
	if c.ci == 0 {
		c.enq(scalarInstr(int64(r.m.P.XDoallStartup)), r.storeFlagInstr(c.k))
		c.branch(stLoopStart)
		return
	}
	r.pollFlag(c, r.flagAddr, int64(c.k+1), stLoopStart)
}

// startWork takes a participant's first share of the loop it has just
// been released into.
func (r *Runtime) startWork(c *ceCtl) {
	switch c.loop {
	case xdStatic:
		p := len(r.ces)
		c.lo = c.ci * c.n / p
		c.hi = (c.ci + 1) * c.n / p
		r.runChunk(c)
	case sdStatic:
		// Iterations iter, iter+stride, ... run on this cluster — the
		// affinity scheduling that keeps partitions in place.
		c.iter = c.clusterIdx
		r.runClusterIter(c)
	default:
		r.claim(c)
	}
}

// runBody appends iteration iter of body to the participant's queue and,
// behind it, the loop branch that runs step then — the one instruction a
// body's reservation leaves room for.
func (c *ceCtl) runBody(body BodyFn, iter int, then step) {
	c.q = body(iter, c.q)
	c.branch(then)
}

// runChunk executes what is left of the XDOALL chunk [lo, hi), one
// iteration per call, then takes the next share: another claim, or the
// barrier when the schedule is static. A self-scheduled iteration is a
// chunk of one.
func (r *Runtime) runChunk(c *ceCtl) {
	switch {
	case c.lo < c.hi:
		c.runBody(c.body, c.lo, stIterDone)
	case c.loop == xdStatic:
		r.barrier(c)
	default:
		r.claim(c)
	}
}

// claimed hands a participant the ticket its claim drew: the first
// iteration of its next chunk, or — at or past n — the end of its loop.
func (r *Runtime) claimed(c *ceCtl, ticket int64) {
	if ticket >= int64(c.n) {
		if c.loop == sdClaimed {
			c.cs.donePhase = c.k
		}
		r.barrier(c)
		return
	}
	switch c.loop {
	case sdClaimed:
		c.iter = int(ticket)
		r.runClusterIter(c)
	case xdGuided:
		// The loop end clips an over-claimed tail.
		c.lo, c.hi = int(ticket), min(int(ticket)+c.chunk, c.n)
		r.runChunk(c)
	default:
		c.lo, c.hi = int(ticket), int(ticket)+1
		r.runChunk(c)
	}
}

// runClusterIter starts SDOALL iteration iter on this master's cluster, or
// ends the cluster's share of a static SDOALL when iter is past the loop.
func (r *Runtime) runClusterIter(c *ceCtl) {
	if c.iter >= c.n {
		c.cs.donePhase = c.k
		r.barrier(c)
		return
	}
	c.work, c.j = c.sbody(c.iter), 0
	r.runClusterWork(c)
}

// runClusterWork executes cluster phase j of the SDOALL iteration on the
// master; past the last it moves to the master's next iteration. Panics
// on an unknown cluster-phase type — a malformed program, not a runtime
// condition.
func (r *Runtime) runClusterWork(c *ceCtl) {
	if c.j >= len(c.work) {
		c.work = nil
		if c.loop == sdStatic {
			c.iter += len(r.clusters)
			r.runClusterIter(c)
		} else {
			r.claim(c)
		}
		return
	}
	switch cp := c.work[c.j].(type) {
	case ClusterSerial:
		// Data private to an SDOALL iteration but shared by the cluster
		// lives in cluster memory; the serial part runs on the master
		// while workers keep watching the bus.
		c.q = cp.Body(c.q)
		c.branch(stClusterNext)

	case CDoall:
		c.cd = cp
		c.branch(stCDStart)

	default:
		panic("cfrt: unknown cluster phase")
	}
}

// pollBus is Next's test for a participant with nothing to issue that is
// watching the concurrency control bus; it reports whether the watch
// ended and enqueued something.
func (r *Runtime) pollBus(c *ceCtl, cy int64) bool {
	cs := c.cs
	if c.watch == watchJoin {
		at, ok := cs.cl.Bus.JoinDone(c.joinGen, cy)
		if !ok {
			return false
		}
		c.watch = watchNone
		r.waitUntil(c, at, stCDDone)
		return true
	}
	// A worker parked until the bus broadcasts a CDOALL or the cluster's
	// SDOALL work ends.
	if cs.gen > c.cdSeen {
		// Joins are cluster-wide, so the master is never more than one
		// generation ahead of any worker.
		c.watch = watchNone
		c.cdSeen = cs.gen
		c.cd = cs.cd
		r.waitUntil(c, cs.startAt, stCDEnter)
		return true
	}
	if cs.donePhase == c.k {
		c.watch = watchNone
		r.barrier(c)
		return true
	}
	return false
}

// cdClaim self-schedules (or block-claims) CDOALL iterations on the bus;
// an exhausted loop leads to the join.
func (r *Runtime) cdClaim(c *ceCtl, cy int64) {
	bus := c.cs.cl.Bus
	var first, count int
	var at int64
	if c.cd.Static {
		ces := len(c.cs.cl.CEs)
		first, count, at = bus.ClaimBlock(cy, (c.cd.N+ces-1)/ces)
	} else if first, at = bus.Claim(cy); first >= 0 {
		count = 1
	}
	if count == 0 {
		r.waitUntil(c, at, stCDJoinEnter)
		return
	}
	c.cdLo, c.cdHi = first, first+count
	r.waitUntil(c, at, stCDRun)
}

// runCDBlock executes what is left of the claimed block [cdLo, cdHi), one
// iteration per call, then claims again.
func (r *Runtime) runCDBlock(c *ceCtl) {
	if c.cdLo >= c.cdHi {
		c.branch(stCDClaim)
		return
	}
	c.runBody(c.cd.Body, c.cdLo, stCDIterDone)
}

// cdJoin arrives at the cluster join and waits for it to complete.
func (r *Runtime) cdJoin(c *ceCtl, cy int64) {
	cs := c.cs
	gen, doneAt, last := cs.cl.Bus.JoinArrive(cy)
	r.post(c.ci, cy, EvCDJoin, gen)
	if last {
		// The last arrival closes the loop instance's trace span:
		// broadcast to join completion.
		if r.obs != nil {
			r.obs.Span(cs.clusterTrack(), "cdoall", cs.cdStartCy, doneAt)
		}
		r.waitUntil(c, doneAt, stCDDone)
		return
	}
	c.joinGen, c.watch = gen, watchJoin
}

// waitUntil stalls the participant until the target cycle, then runs step
// then: a branch that reads the clock, the stall, and the branch that
// carries then.
func (r *Runtime) waitUntil(c *ceCtl, target int64, then step) {
	c.until, c.then = target, then
	c.branch(stWaitUntil)
}

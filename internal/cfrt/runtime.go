package cfrt

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/network"
	"cedar/internal/perfmon"
	"cedar/internal/scope"
)

// Runtime executes a phase program on a machine. It implements
// ce.Controller: CEs pull instructions, and all scheduling state advances
// through instruction completion callbacks, so every runtime action —
// claims, barriers, startup flags — costs real simulated traffic.
type Runtime struct {
	m   *core.Machine
	cfg Config
	ph  []Phase

	ces      []*ce.CE
	ceIdx    []int // CE id -> participant index, -1 = not a participant
	clusters []*clusterCtl
	ctl      []*ceCtl

	flagAddr uint64
	lockAddr uint64
	res      []phaseRes

	// library path lengths (cycles)
	lockPathCycles int64
	syncPathCycles int64
	pollBackoff    int64

	// tracer receives software events when attached (SetTracer).
	tracer *perfmon.Tracer

	// obs is the machine's observability hub (nil when off). Runtime
	// events double as scope counters and phase/loop trace spans;
	// phaseNames[k] labels phase k's span.
	obs        *scope.Hub
	phaseNames []string
}

// Runtime observation state lives per participant (ceCtl below):
// counters are summed at snapshot time and the phase-span start is the
// minimum over participants at the barrier pass.

type ceCtl struct {
	// ci is the participant's index in Runtime.ces and Runtime.ctl.
	ci int
	// q[head:] are the instructions still to issue, by value: Next copies
	// one into the CE's register and advances head rather than reslicing,
	// and rewinds both once the queue drains, so a participant's steady
	// issue/refill cycle reuses one buffer and no runtime-issued
	// instruction is a heap object. Loop bodies append to q directly.
	q        []ce.Instr
	head     int
	finished bool
	// issued is the step code of the instruction Next handed over last —
	// the one in the CE's register, and so the only one whose completion
	// can fire. done is the Done of every runtime-issued instruction: the
	// runtime's one completion callback, bound once in New and shared by
	// every participant, which advances the frame of the CE that fired it
	// by the step that CE's issued names, so no control-flow transfer
	// builds a closure.
	issued step
	done   func(ceID int, value int64, passed bool, cycle int64)
	// wait is the spin this participant is in, if any.
	wait spinWait
	// cs and clusterIdx are the participant's cluster and its index among
	// the participating clusters.
	cs         *clusterCtl
	clusterIdx int
	// cdSeen is the last concurrency-bus generation this CE processed;
	// the bus broadcast can fire before a slow worker enters the phase,
	// and this counter guarantees it still joins that loop.
	cdSeen int

	frame

	// ev counts this participant's runtime events, indexed by kind-1.
	ev [evKinds]int64
	// phaseStart[k] is the cycle this participant entered phase k (-1
	// until then); the span start is the minimum over participants. Kept
	// only under an observability hub.
	phaseStart []int64
}

// qFirst is how many instructions of each participant's queue New carves
// from the runtime's one queue slab: a branch and the instruction it
// follows or leads to — a phase opening's poll, a loop body's iteration,
// a spin's stall and retry. A queue that needs more grows into an array
// of its own, once, and keeps it.
const qFirst = 2

type phaseRes struct {
	counter  uint64
	barCount uint64
	barFlag  uint64
}

type clusterCtl struct {
	cl  *core.Cluster
	gen int
	// cd is the CDOALL the master broadcast last and startAt the cycle
	// the broadcast lands; a worker that sees gen move copies both.
	cd      CDoall
	startAt int64
	// cdStartCy is the broadcast cycle of the CDOALL in flight, the start
	// of its trace span (closed by the last join arrival) on track.
	cdStartCy int64
	track     string
	// donePhase is the index of the SDOALL phase this cluster's master
	// has completed (-1 initially); per-phase so stale completion from
	// an earlier SDOALL cannot release workers early.
	donePhase int
}

// clusterTrack returns cs's trace track, formatted on its first span.
func (cs *clusterCtl) clusterTrack() string {
	if cs.track == "" {
		cs.track = fmt.Sprintf("cfrt/cluster%d", cs.cl.ID)
	}
	return cs.track
}

// New builds a runtime for the given machine, config and phases. The
// participants' control blocks, cluster blocks, queue heads and
// phase-entry cycles come from one slab each and every participant shares
// the runtime's one completion callback, so a runtime costs no object per
// participant.
func New(m *core.Machine, cfg Config, phases ...Phase) *Runtime {
	nclusters := cfg.Clusters
	if nclusters <= 0 || nclusters > len(m.Clusters) {
		nclusters = len(m.Clusters)
	}
	r := &Runtime{
		m:           m,
		cfg:         cfg,
		ph:          phases,
		ceIdx:       make([]int, len(m.CEs)),
		obs:         m.Scope,
		pollBackoff: 25,
	}
	for id := range r.ceIdx {
		r.ceIdx[id] = -1
	}
	hasSDoall := false
	for _, ph := range phases {
		if _, ok := ph.(SDoall); ok {
			hasSDoall = true
		}
	}
	clusters := m.Clusters[:nclusters]
	np := 0
	for _, cl := range clusters {
		np += len(cl.CEs)
	}
	if !hasSDoall && cfg.MaxCEs > 0 {
		np = min(np, cfg.MaxCEs)
	}
	ctls, css := make([]ceCtl, np), make([]clusterCtl, nclusters)
	r.ces, r.ctl, r.clusters = make([]*ce.CE, 0, np), make([]*ceCtl, np), make([]*clusterCtl, nclusters)
	qs := make([]ce.Instr, np*qFirst)
	done := r.complete
	var starts []int64
	if r.obs != nil {
		starts = make([]int64, np*len(phases))
		for i := range starts {
			starts[i] = -1
		}
	}
	for c, cluster := range clusters {
		cs := &css[c]
		*cs = clusterCtl{cl: cluster, donePhase: -1}
		r.clusters[c] = cs
		for _, e := range cluster.CEs {
			ci := len(r.ces)
			if ci == np {
				break
			}
			r.ceIdx[e.ID] = ci
			r.ces = append(r.ces, e)
			ctl := &ctls[ci]
			*ctl = ceCtl{ci: ci, cs: cs, clusterIdx: c, q: qs[ci*qFirst : ci*qFirst : (ci+1)*qFirst], done: done}
			if starts != nil {
				k := len(phases)
				ctl.phaseStart = starts[ci*k : (ci+1)*k : (ci+1)*k]
			}
			r.ctl[ci] = ctl
		}
	}
	// Global words for scheduling: a phase flag, a claim lock, and
	// per-phase claim counters and barrier words, spread across modules.
	r.flagAddr = m.AllocGlobal(1)
	r.lockAddr = m.AllocGlobal(1)
	for range phases {
		r.res = append(r.res, phaseRes{
			counter:  m.AllocGlobal(1),
			barCount: m.AllocGlobal(1),
			barFlag:  m.AllocGlobal(1),
		})
	}
	if r.obs != nil {
		// Phase span labels, formatted once: a barrier pass names its span
		// by indexing.
		r.phaseNames = make([]string, len(phases))
		for k := range phases {
			r.phaseNames[k] = r.phaseName(k)
		}
		r.obs.Table(metricNames, metricKinds, func(dst []int64) {
			dst[0], dst[1], dst[2] = r.sumEv(EvPhaseEnter), r.sumEv(EvClaim), r.sumEv(EvBarrierArrive)
			dst[3], dst[4] = r.sumEv(EvCDStart), r.sumEv(EvCDJoin)
		})
	}
	// Library path lengths: the non-sync claim performs the full lock /
	// read / increment / write / unlock sequence over the network (≈4
	// round trips ≈ 52 cycles); the rest of the ≈30 µs iteration fetch
	// is library code modeled as scalar work. The Cedar-sync path is a
	// short stub plus a single Test-And-Add.
	r.lockPathCycles = int64(m.P.XDoallFetchLock) - 52
	if r.lockPathCycles < 0 {
		r.lockPathCycles = 0
	}
	r.syncPathCycles = 8

	for _, c := range r.ctl {
		r.enterPhase(c, 0)
	}
	return r
}

// Run installs the runtime on its participants and runs to completion.
func (r *Runtime) Run(limit int64) (core.Result, error) {
	return r.m.RunOn(r.ces, r, limit)
}

// P returns the participant count.
func (r *Runtime) P() int { return len(r.ces) }

// complete is the Done of every runtime-issued instruction: it advances
// the participant on CE ceID by the step of the instruction that CE was
// handed last.
func (r *Runtime) complete(ceID int, v int64, passed bool, cycle int64) {
	c := r.ctl[r.ceIdx[ceID]]
	r.advance(c, c.issued, v, passed, cycle)
}

// Next implements ce.Controller.
func (r *Runtime) Next(ceID int, cycle int64, in *ce.Instr) ce.Status {
	ci := r.ceIdx[ceID]
	if ci < 0 {
		return ce.Finished
	}
	c := r.ctl[ci]
	for {
		if c.head < len(c.q) {
			*in = c.q[c.head]
			c.issued = step(in.N)
			// Drop the slot's references: its callback and streams are
			// the CE's now.
			c.q[c.head] = ce.Instr{}
			if c.head++; c.head == len(c.q) {
				c.q, c.head = c.q[:0], 0
			}
			return ce.Ready
		}
		if c.finished {
			return ce.Finished
		}
		if c.watch != watchNone && r.pollBus(c, cycle) {
			continue
		}
		return ce.Wait
	}
}

func (c *ceCtl) enq(ins ...ce.Instr) {
	c.q = append(c.q, ins...)
}

// branch enqueues a zero-length scalar op whose completion runs step s —
// the runtime's "branch" primitive (costs one issue cycle, like real
// control flow at loop ends).
func (c *ceCtl) branch(s step) {
	c.q = append(c.q, ce.Instr{Op: ce.OpScalar, N: int(s), Done: c.done})
}

// enterPhase routes a participant into phase k: it fills the frame with
// the phase's loop and enqueues the phase's opening instructions. Panics
// on an unknown phase type — a malformed program, not a runtime condition.
func (r *Runtime) enterPhase(c *ceCtl, k int) {
	if k >= len(r.ph) {
		c.finished = true
		return
	}
	c.k = k
	// The tracer may be attached after construction (phase 0 is entered
	// inside New), so the post is enqueued unconditionally and checks the
	// tracer when it fires.
	c.branch(stPhaseEnter)
	switch ph := r.ph[k].(type) {
	case Serial:
		if c.ci == 0 {
			c.q = ph.Body(c.q)
		}
		r.barrier(c)

	case XDoall:
		c.n, c.body = ph.N, ph.Body
		switch ph.schedule() {
		case StaticSchedule:
			c.loop = xdStatic
		case GuidedSchedule:
			c.loop = xdGuided
		default:
			c.loop = xdSelf
		}
		r.startLoop(c)

	case SDoall:
		c.n, c.sbody = ph.N, ph.Body
		if c.loop = sdClaimed; ph.Static {
			c.loop = sdStatic
		}
		if r.ces[c.ci].IDInCluster != 0 {
			// Worker: watch the bus for broadcasts until the cluster is
			// done.
			c.watch = watchBus
			return
		}
		r.startLoop(c)

	default:
		panic(fmt.Sprintf("cfrt: unknown phase type %T", r.ph[k]))
	}
}

// barrier runs the multicluster end-of-phase barrier and then advances the
// participant to the next phase.
func (r *Runtime) barrier(c *ceCtl) {
	c.enq(ce.Instr{
		Op: ce.OpSync, Addr: r.res[c.k].barCount,
		Test: network.TestAlways, Mut: network.OpAdd, Value: 1,
		N: int(stBarrierArrive), Done: c.done,
	})
}

// spinWait is a participant's wait in progress: the sync instruction it
// reissues until the test passes, the scalar stall before the next
// attempt (doubling up to limit) and the step that runs once it passes
// (stNone: no wait in progress). It is state, not a closure per attempt,
// so how long a wait lasts costs the host nothing.
type spinWait struct {
	try     ce.Instr
	backoff int64
	limit   int64
	then    step
}

// spin issues try until its test passes, then runs step then. A
// participant is in one wait at a time — every caller sits at the tail of
// the participant's control flow — and a second would overwrite the
// first's state, so that is a panic, not a queue.
func (r *Runtime) spin(c *ceCtl, try ce.Instr, backoff, limit int64, then step) {
	if c.wait.then != stNone {
		panic("cfrt: wait started inside an unfinished wait")
	}
	try.N, try.Done = int(stSpin), c.done
	c.wait = spinWait{try: try, backoff: backoff, limit: limit, then: then}
	c.q = append(c.q, try)
}

// pollFlag spins on a global word with Test-And-Read until it reaches
// want, then runs step then. Backoff doubles up to a cap so that dozens
// of waiting CEs do not turn the flag's memory module into a hot spot
// that saturates the network for the processors still computing.
func (r *Runtime) pollFlag(c *ceCtl, addr uint64, want int64, then step) {
	r.spin(c, ce.Instr{
		Op: ce.OpSync, Addr: addr,
		Test: network.TestGE, TestArg: want, Mut: network.OpNone,
	}, r.pollBackoff, pollBackoffCap, then)
}

const pollBackoffCap = 400

// lockRetry is the fixed stall between Test-And-Set attempts.
const lockRetry = 20

// takeLockThen spins on the claim lock with Test-And-Set, then runs step
// then holding it.
func (r *Runtime) takeLockThen(c *ceCtl, then step) {
	r.spin(c, ce.Instr{
		Op: ce.OpSync, Addr: r.lockAddr,
		Test: network.TestEQ, TestArg: 0, Mut: network.OpWrite, Value: 1,
	}, lockRetry, lockRetry, then)
}

// scalarInstr builds a plain scalar-work instruction.
func scalarInstr(cycles int64) ce.Instr {
	return ce.Instr{Op: ce.OpScalar, Cycles: cycles}
}

// storeFlagInstr builds the phase-release store.
func (r *Runtime) storeFlagInstr(k int) ce.Instr {
	return ce.Instr{Op: ce.OpGlobalStore, Addr: r.flagAddr, Value: int64(k + 1)}
}

package cfrt

import (
	"cedar/internal/ce"
	"cedar/internal/network"
)

// Schedule selects an XDOALL scheduling policy.
//
// GuidedSchedule is guided self-scheduling (GSS) — Polychronopoulos &
// Kuck's policy, developed within the Cedar project (C. Polychronopoulos
// appears in the paper's acknowledgments): each claim takes
// ceil(remaining/P) iterations, so early claims grab large chunks (few
// scheduling operations) while late claims shrink toward single
// iterations (load balance). On Cedar it rides the same Test-And-Operate
// hardware as plain self-scheduling: the runtime issues one fetch-add of
// a locally estimated chunk and the loop end clips over-claimed tails,
// preserving the single-round-trip property.
type Schedule uint8

// XDOALL scheduling policies.
const (
	// SelfSchedule claims one iteration per synchronization operation —
	// the runtime library default.
	SelfSchedule Schedule = iota
	// StaticSchedule pre-chunks iterations evenly; no claims at all.
	StaticSchedule
	// GuidedSchedule claims ceil(remaining/P) iterations per operation.
	GuidedSchedule
)

// gssChunk returns the GSS chunk when `claimed` iterations of n are
// already taken by p processors.
func gssChunk(n int, claimed int64, p int) int {
	rem := n - int(claimed)
	if rem <= 0 {
		return 0
	}
	c := (rem + p - 1) / p
	if c < 1 {
		c = 1
	}
	return c
}

// claim draws the participant's next ticket from the phase counter —
// the next iteration of a self-scheduled XDOALL or a claimed SDOALL, the
// first of a guided chunk — honouring the Cedar-sync configuration;
// claimed receives it.
//
// With Cedar synchronization a claim is a short stub plus one
// Test-And-Add. A guided claim first reads the counter to estimate the
// remaining work, locally computes the GSS chunk, then claims it with a
// fetch-add (the loop end clips over-claimed tails); the estimate costs a
// real global load — every processor's view of the machine-wide progress
// travels through the network, never through simulator-side shared state.
//
// Without it the library path runs: a scalar prologue, then lock / read /
// write / unlock over the network. The locked read-modify-write already
// reads the counter, so a guided estimate folds into it at no extra
// traffic.
func (r *Runtime) claim(c *ceCtl) {
	if !r.cfg.UseCedarSync {
		c.enq(scalarInstr(r.lockPathCycles))
		r.takeLockThen(c, stLockHeld)
		return
	}
	counter := r.res[c.k].counter
	if c.loop == xdGuided {
		c.enq(scalarInstr(r.syncPathCycles), ce.Instr{
			Op: ce.OpGlobalLoad, Addr: counter,
			N: int(stGuidedRead), Done: c.done,
		})
		return
	}
	c.enq(scalarInstr(r.syncPathCycles), ce.Instr{
		Op: ce.OpSync, Addr: counter,
		Test: network.TestAlways, Mut: network.OpAdd, Value: 1,
		N: int(stClaimed), Done: c.done,
	})
}

// guidedChunk is the chunk a guided claim takes when it read v from the
// counter: never less than one iteration, so that a claim past the end
// still draws a ticket and learns the loop is over.
func (r *Runtime) guidedChunk(c *ceCtl, v int64) int {
	return max(gssChunk(c.n, v, len(r.ces)), 1)
}

// guidedClaim claims the GSS chunk for a counter estimate of v with one
// fetch-add.
func (r *Runtime) guidedClaim(c *ceCtl, v int64) {
	c.chunk = r.guidedChunk(c, v)
	c.enq(ce.Instr{
		Op: ce.OpSync, Addr: r.res[c.k].counter,
		Test: network.TestAlways, Mut: network.OpAdd, Value: int64(c.chunk),
		N: int(stGuidedClaimed), Done: c.done,
	})
}

// claimUnderLock finishes a library-path claim that read v from the
// counter: write it back advanced by the claim, one iteration or the
// guided chunk, and release the lock. The ticket is the participant's
// once the unlock retires.
func (r *Runtime) claimUnderLock(c *ceCtl, v int64) {
	c.ticket, c.chunk = v, 1
	if c.loop == xdGuided {
		c.chunk = r.guidedChunk(c, v)
	}
	c.enq(
		ce.Instr{Op: ce.OpGlobalStore, Addr: r.res[c.k].counter, Value: v + int64(c.chunk)},
		ce.Instr{Op: ce.OpGlobalStore, Addr: r.lockAddr, Value: 0,
			N: int(stClaimUnlocked), Done: c.done},
	)
}

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

// guidedLoop self-schedules iterations with guided chunks.
func (r *Runtime) guidedLoop(ci, k int, ph XDoall) {
	r.guidedClaim(ci, k, ph.N, func(first int64, chunk int) {
		if first >= int64(ph.N) {
			r.barrier(ci, k)
			return
		}
		hi := int(first) + chunk
		if hi > ph.N {
			hi = ph.N
		}
		r.runChunkThen(ci, int(first), hi, ph.Body, func() {
			r.guidedLoop(ci, k, ph)
		})
	})
}

// guidedClaim performs one guided claim against the phase counter: read
// the counter to estimate remaining work, locally compute the GSS chunk,
// then claim it with a fetch-add (the loop end clips over-claimed
// tails). The estimate costs a real global load — every processor's view
// of the machine-wide progress travels through the network, never
// through simulator-side shared state.
func (r *Runtime) guidedClaim(ci, k, n int, got func(first int64, chunk int)) {
	p := len(r.ces)
	res := &r.res[k]
	if r.cfg.UseCedarSync {
		r.enq(ci,
			scalarInstr(r.syncPathCycles),
			ce.Instr{
				Op: ce.OpGlobalLoad, Addr: res.counter,
				OnResult: func(v int64, _ bool, _ int64) {
					chunk := gssChunk(n, v, p)
					if chunk < 1 {
						chunk = 1
					}
					r.enq(ci, ce.Instr{
						Op: ce.OpSync, Addr: res.counter,
						Test: network.TestAlways, Mut: network.OpAdd, Value: int64(chunk),
						OnResult: func(first int64, _ bool, _ int64) {
							got(first, chunk)
						},
					})
				},
			})
		return
	}
	// Library path: the locked read-modify-write already reads the
	// counter, so the estimate folds into it at no extra traffic.
	r.enq(ci, scalarInstr(r.lockPathCycles))
	r.takeLockThen(ci, func() {
		r.enq(ci, ce.Instr{
			Op: ce.OpGlobalLoad, Addr: res.counter,
			OnResult: func(v int64, _ bool, _ int64) {
				chunk := gssChunk(n, v, p)
				if chunk < 1 {
					chunk = 1
				}
				r.enq(ci,
					ce.Instr{Op: ce.OpGlobalStore, Addr: res.counter, Value: v + int64(chunk)},
					ce.Instr{Op: ce.OpGlobalStore, Addr: r.lockAddr, Value: 0,
						OnDone: func(int64) { got(v, chunk) }},
				)
			},
		})
	})
}

// runChunkThen executes iterations [lo, hi) sequentially, then cont.
func (r *Runtime) runChunkThen(ci, lo, hi int, body BodyFn, cont func()) {
	if lo >= hi {
		cont()
		return
	}
	r.runBody(ci, body, lo, func(int64) { r.runChunkThen(ci, lo+1, hi, body, cont) })
}

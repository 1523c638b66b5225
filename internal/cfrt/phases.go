// Package cfrt models the Cedar Fortran runtime library: the loop
// scheduling machinery that CEDAR FORTRAN programs use to run DOALL loops
// across the machine.
//
// Three loop levels exist, matching the language:
//
//   - CDOALL schedules iterations on the CEs of one cluster through the
//     concurrency control bus: concurrent-start broadcasts the loop in a
//     few microseconds and CEs self-schedule with short bus transactions.
//   - SDOALL schedules each iteration on an entire cluster. The iteration
//     starts on one CE of the cluster; the other CEs remain idle until a
//     CDOALL executes within the SDOALL body.
//   - XDOALL uses all processors in the machine, scheduling through the
//     runtime library in global memory: loop startup costs ≈90 µs and
//     fetching the next iteration ≈30 µs — unless Cedar synchronization
//     instructions are used, in which case a claim is one Test-And-Add
//     round trip. This is exactly the "no Cedar synchronization" ablation
//     of Table 3.
//
// Loops can be self-scheduled or statically chunked, again matching the
// runtime library options the paper describes.
//
// A program is a list of phases whose bodies append instructions to the
// queue of whichever CE runs the iteration:
//
//	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true},
//		cfrt.XDoall{N: 100, Body: func(i int, q []ce.Instr) []ce.Instr {
//			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 25, Flops: 4})
//		}})
//	res, err := rt.Run(10_000_000)
//
// Instructions are values from the body to the CE: a participant's queue
// is a []ce.Instr and Next copies the head into the CE's own instruction
// register. Control flow is per-participant state: a frame (phase, loop,
// chunk, claim, cluster phase, CDOALL in flight) advanced by the one
// completion callback New binds for the whole runtime, and waits — the
// barrier flag poll, the claim lock — that reissue one instruction. So
// neither a participant, a queued instruction, a failed poll, an
// iteration, a claim nor a join is a heap object (DESIGN.md, "Instruction
// ownership").
package cfrt

import "cedar/internal/ce"

// BodyFn appends the instruction sequence of one loop iteration to q and
// returns the extended slice, as append does. q is the executing CE's own
// instruction queue: a body only appends — it neither reads, rewrites nor
// retains q — and the runtime copies each instruction into the CE's
// register when it issues, so a body builds values, never heap objects:
//
//	func(i int, q []ce.Instr) []ce.Instr {
//		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 25, Flops: 4})
//	}
//
// A body that knows its length n reserves it once — slices.Grow(q, n+1):
// its instructions and the loop branch the runtime issues behind every
// body — instead of letting a long sequence grow the queue one doubling
// at a time, or an exact fit be doubled by that one branch. Srcs slices
// and Dst pointers stay owned by the body that built them; the runtime
// never recycles them.
type BodyFn func(iter int, q []ce.Instr) []ce.Instr

// Phase is one machine-wide step of a program. Phases are separated by
// multicluster barriers through global memory.
type Phase interface{ isPhase() }

// Serial runs on CE 0 while every other CE waits at the phase barrier.
// Body appends like a BodyFn without the iteration number.
type Serial struct {
	Body func(q []ce.Instr) []ce.Instr
}

func (Serial) isPhase() {}

// XDoall spreads N iterations over every CE in the machine.
type XDoall struct {
	N    int
	Body BodyFn
	// Static pre-chunks iterations instead of self-scheduling claims
	// (shorthand for Sched: StaticSchedule).
	Static bool
	// Sched selects the scheduling policy when Static is false:
	// SelfSchedule (default) or GuidedSchedule.
	Sched Schedule
}

// schedule resolves the effective policy.
func (x XDoall) schedule() Schedule {
	if x.Static {
		return StaticSchedule
	}
	return x.Sched
}

func (XDoall) isPhase() {}

// SDoall schedules iterations on whole clusters. Each iteration's body is
// a sequence of cluster phases.
type SDoall struct {
	N    int
	Body func(iter int) []ClusterPhase
	// Static assigns iteration i to cluster i mod clusters — the
	// affinity scheduling CEDAR FORTRAN uses to keep successive SDOALLs
	// on the same data partitions.
	Static bool
}

func (SDoall) isPhase() {}

// ClusterPhase is one step of an SDOALL iteration, executed by one cluster.
type ClusterPhase interface{ isClusterPhase() }

// ClusterSerial runs on the cluster's master CE.
type ClusterSerial struct {
	Body func(q []ce.Instr) []ce.Instr
}

func (ClusterSerial) isClusterPhase() {}

// CDoall spreads N iterations over the cluster's CEs via the concurrency
// control bus.
type CDoall struct {
	N    int
	Body BodyFn
	// Static claims ceil(N/8) iterations per bus transaction.
	Static bool
}

func (CDoall) isClusterPhase() {}

// Config selects runtime library options.
type Config struct {
	// UseCedarSync claims XDOALL/SDOALL iterations with a single
	// Test-And-Add executed by the memory's synchronization processor.
	// Without it the library takes a Test-And-Set lock and performs the
	// read-increment-write-unlock sequence over the network, ≈30 µs per
	// claim (the paper's "No Synchronization" column).
	UseCedarSync bool
	// Clusters restricts execution to the first n clusters (0 = all).
	// The Perfect rules confined some codes to one cluster to avoid
	// intercluster overhead.
	Clusters int
	// MaxCEs restricts execution to the first n CEs across the
	// participating clusters (0 = all); used by processor-count sweeps
	// such as the CG scalability study. SDOALL phases require whole
	// clusters and ignore this limit.
	MaxCEs int
}

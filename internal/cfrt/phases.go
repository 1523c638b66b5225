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
// A program is a list of phases whose bodies write, one at a time, the
// instructions of whichever iteration a CE runs:
//
//	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true},
//		cfrt.XDoall{N: 100, Body: func(i, k int, in *ce.Instr) bool {
//			if k > 0 {
//				return false
//			}
//			*in = ce.Instr{Op: ce.OpScalar, Cycles: 25, Flops: 4}
//			return true
//		}})
//	res, err := rt.Run(10_000_000)
//
// A CE asks for one instruction at a time, as the paper's CEs fetch an
// iteration's instructions: Next writes a body's next instruction straight
// into the CE's own instruction register, and a participant's queue holds
// only the few instructions the runtime issues itself. Control flow is
// per-participant state: a frame (phase, loop, chunk, claim, cluster
// phase, CDOALL in flight, body in progress) advanced by the one
// completion callback New binds for the whole runtime, and waits — the
// barrier flag poll, the claim lock — that reissue one instruction. So
// neither a participant, an instruction, a failed poll, an iteration, a
// claim nor a join is a heap object, and no participant holds a whole
// iteration (DESIGN.md, "Instruction ownership").
package cfrt

import "cedar/internal/ce"

// BodyFn is a loop body: it writes instruction k of iteration iter into
// in and reports whether that instruction exists. The runtime asks for k
// = 0, 1, … in order, once each, as the executing CE becomes free, with in
// zeroed — it is the CE's own instruction register — and behind the first
// k the body reports false issues whatever follows the body (the loop
// branch). A body that reports false at k = 0 is empty:
//
//	func(i, k int, in *ce.Instr) bool {
//		if k > 0 {
//			return false
//		}
//		in.Op, in.Cycles, in.Flops = ce.OpScalar, 25, 4
//		return true
//	}
//
// The CE copies the streams Srcs names when the instruction issues, so
// the iteration's next instruction may reuse that storage; another
// iteration may not, since it can run on another CE at the same time. The
// CE reads *Dst for as long as the instruction runs, so Dst must point at
// storage the body keeps for the whole run. A body whose streams are
// built once, per kernel call or per phase, allocates nothing when it is
// called.
type BodyFn func(iter, k int, in *ce.Instr) bool

// Phase is one machine-wide step of a program. Phases are separated by
// multicluster barriers through global memory.
type Phase interface{ isPhase() }

// Serial runs on CE 0 while every other CE waits at the phase barrier.
// Body is called with iter 0.
type Serial struct {
	Body BodyFn
}

func (Serial) isPhase() {}

// XDoall spreads N iterations over every CE in the machine.
type XDoall struct {
	N    int
	Body BodyFn
	// Sched selects the scheduling policy: SelfSchedule (default),
	// GuidedSchedule or StaticSchedule.
	Sched Schedule
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

// ClusterSerial runs on the cluster's master CE. Body is called with iter
// 0.
type ClusterSerial struct {
	Body BodyFn
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

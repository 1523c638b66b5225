// Package ce models an Alliant FX/8 computational element as deployed in
// Cedar: a 170 ns pipelined scalar processor with a vector unit (eight
// 32-word registers, 64-bit floating point, register-memory instructions
// with one memory operand, chaining) and a per-CE global-memory interface
// limited to two outstanding requests unless the prefetch unit is used.
//
// CEs do not interpret 68020 machine code; they execute Instrs — an
// abstraction at the level the paper reasons about: scalar work, vector
// operations over memory streams, scalar global accesses, and Cedar
// synchronization instructions. A Controller feeds Instrs to each CE,
// which is how the Cedar Fortran runtime schedules loop iterations.
package ce

import "cedar/internal/network"

// Space says where a stream's data lives.
type Space uint8

// Stream address spaces.
const (
	// SpaceNone is a register-resident operand: always available.
	SpaceNone Space = iota
	// SpaceGlobal is Cedar's shared global memory, reached through the
	// forward/reverse networks.
	SpaceGlobal
	// SpaceCluster is the cluster memory behind the shared cache.
	SpaceCluster
)

// Stream describes one vector memory operand.
type Stream struct {
	Space  Space
	Base   uint64 // word address of element 0
	Stride int64  // words between elements
	// PrefBlock selects prefetched access in blocks of this many words
	// (global streams only; at most one prefetched stream per
	// instruction, since a CE has a single PFU). Zero means plain
	// loads limited to the CE's two outstanding requests.
	PrefBlock int
}

// Op is an instruction kind.
type Op uint8

// Instruction kinds.
const (
	// OpScalar models Cycles of scalar computation contributing Flops
	// floating-point operations.
	OpScalar Op = iota
	// OpVector is a strip-mined vector operation of N elements reading
	// Srcs and optionally writing Dst, contributing Flops per element.
	OpVector
	// OpGlobalLoad is a blocking scalar load from global memory.
	OpGlobalLoad
	// OpGlobalStore is a non-blocking scalar store to global memory.
	OpGlobalStore
	// OpSync is a blocking Cedar Test-And-Operate on a global location,
	// executed by the memory module's synchronization processor.
	OpSync
	// OpFence blocks until all of this CE's global stores have been
	// acknowledged (a memory-ordering point in the weakly ordered
	// global memory).
	OpFence
	// OpClusterLoad is a blocking scalar load through the cluster cache.
	OpClusterLoad
	// OpClusterStore is a non-blocking scalar store through the cache.
	OpClusterStore
)

// Instr is one CE instruction.
type Instr struct {
	Op Op

	// OpScalar.
	Cycles int64

	// Flops: total for OpScalar, per element for OpVector.
	Flops int64

	// OpVector. No other op reads N, so a controller may carry a tag of
	// its own there (cfrt: the step the instruction's completion runs).
	N    int
	Srcs []Stream
	Dst  *Stream

	// Scalar memory / sync operations.
	Addr    uint64
	Value   int64
	Test    network.TestOp
	Mut     network.MutOp
	TestArg int64

	// Done is the instruction's completion, fired once with the id of the
	// CE that ran it. A load or sync fires it when its value comes back,
	// with that value (and for a sync, whether the test passed); any other
	// instruction fires it when it retires, with value 0 and passed false.
	// A controller that binds one Done for all its CEs tells them apart by
	// ceID, so issuing an instruction costs it no closure.
	Done func(ceID int, value int64, passed bool, cycle int64)
}

// Status is a Controller response.
type Status uint8

// Controller responses.
const (
	// Ready: the returned instruction should execute now.
	Ready Status = iota
	// Wait: nothing to do this cycle; ask again.
	Wait
	// Finished: this CE has no further work.
	Finished
)

// Controller feeds instructions to a CE. The Cedar Fortran runtime
// implements Controller to schedule loops; tests use canned sequences.
//
// Next fills in — the CE's own instruction register — and returns Ready,
// or leaves it alone and returns Wait or Finished. The CE executes from
// its register and never looks at controller storage again, so whatever a
// controller filled in from is dead the moment Next returns: it may be
// rewritten from inside the instruction's own Done. in arrives
// holding the previous instruction; a controller assigns all of it.
//
// A CE has one instruction in progress and asks for the next only after
// that one retired, so completion callbacks fire strictly in the order
// Next handed instructions over, and a callback that fires belongs to the
// last one handed over: a controller can keep per-instruction context in
// one variable written in Next instead of in a closure per instruction.
type Controller interface {
	Next(ceID int, cycle int64, in *Instr) Status
}

// Program is a fixed instruction sequence implementing Controller. It
// keeps each CE's position, so one Program drives one machine's run.
type Program struct {
	Instrs []*Instr
	pos    map[int]int
}

// Next implements Controller: every CE runs the same sequence privately.
func (p *Program) Next(ceID int, cycle int64, in *Instr) Status {
	if p.pos == nil {
		p.pos = make(map[int]int) // lazily, once per program
	}
	i := p.pos[ceID]
	if i >= len(p.Instrs) {
		return Finished
	}
	p.pos[ceID] = i + 1
	*in = *p.Instrs[i]
	return Ready
}

// Generator is a Controller whose program is computed, not stored: every
// CE runs n instructions, and instruction i of CE ceID is whatever fill
// writes into the (zeroed) Instr it is handed — the CE's own register, so
// a probe of a million loads costs the host no Instr at all.
type Generator struct {
	n    int
	fill func(ceID, i int, in *Instr)
	next []int // per CE: the index of its next instruction
}

// NewGenerator builds a Generator for the CEs with ids below nCE.
func NewGenerator(nCE, n int, fill func(ceID, i int, in *Instr)) *Generator {
	return &Generator{n: n, fill: fill, next: make([]int, nCE)}
}

// Next implements Controller.
func (g *Generator) Next(ceID int, cycle int64, in *Instr) Status {
	i := g.next[ceID]
	if i >= g.n {
		return Finished
	}
	*in = Instr{}
	g.fill(ceID, i, in)
	g.next[ceID] = i + 1
	return Ready
}

// Package network models Cedar's unidirectional global interconnection
// networks: multistage shuffle-exchange (omega) networks built from 8×8
// crossbar switches with 64-bit data paths, two-word queues per switch
// port, stage-to-stage flow control, and tag-based self-routing in the
// style of Lawrie's alignment networks [Lawr75].
//
// Cedar uses two such networks — a forward network carrying requests from
// the 32 CEs to the 32 global memory modules, and a reverse network
// carrying replies back. Both are instances of the same Fabric.
//
// A packet consists of one to four 64-bit words; the first word carries
// routing and control information and the memory address. A W-word packet
// occupies a link for W cycles, which is how store traffic consumes twice
// the bandwidth of load requests.
package network

import "fmt"

// Kind identifies the packet type on the wire.
type Kind uint8

// Packet kinds. Requests travel on the forward network, replies on the
// reverse network.
const (
	// ReadReq asks a memory module for one word. 1 word on the wire.
	ReadReq Kind = iota
	// WriteReq carries one word to be stored. 2 words on the wire.
	WriteReq
	// SyncReq carries a Test-And-Operate command for the module's
	// synchronization processor. 2 words on the wire.
	SyncReq
	// ReadReply returns a loaded word. 1 word on the wire (the data path
	// is 64 bits wide and routing rides in unused address bits).
	ReadReply
	// WriteAck confirms a store for memory-ordering points. 1 word.
	WriteAck
	// SyncReply returns the pre-operation value of a synchronization
	// location together with the test outcome. 1 word.
	SyncReply
	// NackReply bounces a prefetch read whose module refused service
	// (fault injection); the PFU reissues the element. 1 word.
	NackReply
)

var kindNames = [...]string{"ReadReq", "WriteReq", "SyncReq", "ReadReply", "WriteAck", "SyncReply", "NackReply"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// WireWords returns the number of 64-bit words a packet of this kind
// occupies, including the routing/address word.
func (k Kind) WireWords() int {
	switch k {
	case WriteReq, SyncReq:
		return 2
	default:
		return 1
	}
}

// PrefetchTagBit marks packet tags owned by a prefetch unit. It lives
// here (rather than in internal/prefetch) because the memory modules
// and the fault layer must recognize prefetch traffic: PFU reads are
// the only idempotent, retried packets, so they are the only ones a
// fault may NACK or drop.
const PrefetchTagBit = 1 << 31

// droppable reports whether a fault may lose this packet in transit:
// only prefetch read traffic, which the PFU detects (by NACK or
// timeout) and reissues. Stores and synchronization operations are
// never dropped — retrying them would double-apply their side effects.
func droppable(p *Packet) bool {
	return p.Tag&PrefetchTagBit != 0 && (p.Kind == ReadReq || p.Kind == ReadReply)
}

// TestOp is the relational test of a Cedar Test-And-Operate synchronization
// instruction [ZhYe87]. The test is evaluated against the current value of
// the synchronization location; the mutation is applied only if it passes.
type TestOp uint8

// Relational tests on the 32-bit synchronization field.
const (
	TestAlways TestOp = iota // unconditional (plain fetch-and-op)
	TestEQ
	TestNE
	TestLT
	TestLE
	TestGT
	TestGE
)

// Eval applies the test to value v with argument arg.
func (t TestOp) Eval(v, arg int64) bool {
	switch t {
	case TestAlways:
		return true
	case TestEQ:
		return v == arg
	case TestNE:
		return v != arg
	case TestLT:
		return v < arg
	case TestLE:
		return v <= arg
	case TestGT:
		return v > arg
	case TestGE:
		return v >= arg
	}
	return false
}

// MutOp is the operate half of Test-And-Operate.
type MutOp uint8

// Mutations applied by the synchronization processor when the test passes.
const (
	OpNone  MutOp = iota // test only
	OpRead               // no mutation, return value
	OpWrite              // store operand
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
)

// Apply returns the new value for location value v and operand arg.
func (m MutOp) Apply(v, arg int64) int64 {
	switch m {
	case OpNone, OpRead:
		return v
	case OpWrite:
		return arg
	case OpAdd:
		return v + arg
	case OpSub:
		return v - arg
	case OpAnd:
		return v & arg
	case OpOr:
		return v | arg
	case OpXor:
		return v ^ arg
	}
	return v
}

// Packet is one message on a Cedar network.
type Packet struct {
	Kind Kind
	Src  int    // ingress port
	Dst  int    // egress port
	Addr uint64 // global word address (8-byte words)

	// Tag lets the issuer match replies to requests (for example, a
	// prefetch buffer slot index).
	Tag uint32

	// Value is the store data (WriteReq), operand (SyncReq), or returned
	// value (ReadReply, SyncReply).
	Value int64

	// Test/Mut describe a SyncReq command; TestArg is the comparison
	// operand. SyncReply sets TestPassed.
	Test       TestOp
	Mut        MutOp
	TestArg    int64
	TestPassed bool

	// Issue is the cycle the original request entered the forward
	// network; replies copy it so the issuer can compute round-trip
	// latency. Maintained by the caller, not the fabric.
	Issue int64

	// readyAt gates cut-through: the packet may not leave a queue before
	// this cycle (it is still arriving, or it just moved this cycle).
	readyAt int64
}

// Words returns the wire length of the packet.
func (p *Packet) Words() int { return p.Kind.WireWords() }

// String implements fmt.Stringer for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d addr=%#x tag=%d", p.Kind, p.Src, p.Dst, p.Addr, p.Tag)
}

package fault

import (
	"fmt"

	"cedar/internal/params"
	"cedar/internal/scope"
)

// Stats counts injected faults, cumulatively per machine.
type Stats struct {
	BankStalls int64 // stall injections (not stall cycles)
	StageJams  int64 // output wires jammed for a cycle
	LinkDrops  int64 // prefetch packets lost in a fabric
	PFUNacks   int64 // prefetch reads bounced by a module
}

// Injector answers the machine's per-cycle fault queries for one Plan.
// All methods are nil-safe: a nil *Injector is the healthy machine.
// The injector is owned by a single machine (single goroutine); its
// counters are plain fields, and its probability draws are pure
// functions of (seed, component, cycle), so identical machines draw
// identical faults regardless of how many run concurrently.
type Injector struct {
	plan *Plan
	hub  *scope.Hub

	dead   []bool // per-module BankDead flags
	nDead  int
	stalls []int // plan indices of BankStall faults
	jams   []int // plan indices of StageJam faults
	drops  []int // plan indices of LinkDrop faults
	nacks  []int // plan indices of PFUNack faults

	stats Stats
}

// NewInjector validates the plan against a machine configuration and
// builds its injector. A nil or empty plan yields a nil injector.
func NewInjector(p params.Machine, plan *Plan) (*Injector, error) {
	if plan == nil || len(plan.Faults) == 0 {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan, dead: make([]bool, p.MemModules)}
	for i := range plan.Faults {
		f := &plan.Faults[i]
		if f.Module >= p.MemModules {
			return nil, fmt.Errorf("fault: fault %d (%s): module %d outside 0..%d",
				i, f.Kind, f.Module, p.MemModules-1)
		}
		switch f.Kind {
		case BankDead:
			if !in.dead[f.Module] {
				in.dead[f.Module] = true
				in.nDead++
			}
		case BankStall:
			in.stalls = append(in.stalls, i)
		case StageJam:
			in.jams = append(in.jams, i)
		case LinkDrop:
			in.drops = append(in.drops, i)
		case PFUNack:
			in.nacks = append(in.nacks, i)
		}
	}
	if in.nDead >= p.MemModules {
		return nil, fmt.Errorf("fault: all %d memory modules dead", p.MemModules)
	}
	return in, nil
}

// SetScope attaches an observability hub; injections emit cycle-stamped
// instant events on its "faults" track.
func (in *Injector) SetScope(h *scope.Hub) {
	if in != nil {
		in.hub = h
	}
}

// Stats returns cumulative injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// DeadModules returns how many memory modules the plan removes.
func (in *Injector) DeadModules() int {
	if in == nil {
		return 0
	}
	return in.nDead
}

// Retryable reports whether the plan can generate recoverable faults
// (NACKs or drops) that the prefetch path must arm its retry and
// timeout machinery for.
func (in *Injector) Retryable() bool {
	return in != nil && (len(in.nacks) > 0 || len(in.drops) > 0)
}

// BankDead reports whether global-memory module mod is out of service.
func (in *Injector) BankDead(mod int) bool {
	return in != nil && in.dead[mod]
}

// BankStall returns the extra service latency injected into module
// mod's access initiated at cycle (0 when no stall fires).
func (in *Injector) BankStall(mod int, cycle int64) int64 {
	if in == nil {
		return 0
	}
	var extra int64
	for _, i := range in.stalls {
		f := &in.plan.Faults[i]
		if f.Module != -1 && f.Module != mod {
			continue
		}
		if !f.active(cycle) {
			continue
		}
		if in.draw(f.Rate, saltStall, uint64(i), uint64(mod), uint64(cycle)) {
			extra += f.Extra
			in.stats.BankStalls++
			in.emit("gmem", "bank-stall", cycle)
		}
	}
	return extra
}

// StageJam reports whether the output wire (fabric, stage, line) is
// jammed at cycle, counting and emitting the injection.
func (in *Injector) StageJam(fabric string, stage, line int, cycle int64) bool {
	if in == nil || len(in.jams) == 0 {
		return false
	}
	if !in.drawWire(in.jams, saltJam, fabric, stage, line, cycle) {
		return false
	}
	in.stats.StageJams++
	in.emit(fabric, "stage-jam", cycle)
	return true
}

// JamDelay returns how many consecutive cycles starting at cycle the
// wire (fabric, stage, line) is jammed — the added transit latency an
// ideal crossbar charges in place of blocking a queue. The scan is
// capped so a rate-1 jam cannot loop forever.
func (in *Injector) JamDelay(fabric string, stage, line int, cycle int64) int64 {
	if in == nil || len(in.jams) == 0 {
		return 0
	}
	var d int64
	for d < jamScanCap && in.drawWire(in.jams, saltJam, fabric, stage, line, cycle+d) {
		d++
	}
	if d > 0 {
		in.stats.StageJams++
		in.emit(fabric, "stage-jam", cycle)
	}
	return d
}

// LinkDrop reports whether a prefetch packet crossing the wire (fabric,
// stage, line) at cycle is lost.
func (in *Injector) LinkDrop(fabric string, stage, line int, cycle int64) bool {
	if in == nil || len(in.drops) == 0 {
		return false
	}
	if !in.drawWire(in.drops, saltDrop, fabric, stage, line, cycle) {
		return false
	}
	in.stats.LinkDrops++
	in.emit(fabric, "link-drop", cycle)
	return true
}

// PFUNack reports whether module mod bounces the prefetch read it
// initiates at cycle.
func (in *Injector) PFUNack(mod int, cycle int64) bool {
	if in == nil || len(in.nacks) == 0 {
		return false
	}
	for _, i := range in.nacks {
		f := &in.plan.Faults[i]
		if f.Module != -1 && f.Module != mod {
			continue
		}
		if !f.active(cycle) {
			continue
		}
		if in.draw(f.Rate, saltNack, uint64(i), uint64(mod), uint64(cycle)) {
			in.stats.PFUNacks++
			in.emit("gmem", "pfu-nack", cycle)
			return true
		}
	}
	return false
}

// drawWire evaluates every fault in idxs against a network wire.
func (in *Injector) drawWire(idxs []int, salt uint64, fabric string, stage, line int, cycle int64) bool {
	fc := fabricCode(fabric)
	for _, i := range idxs {
		f := &in.plan.Faults[i]
		if f.Fabric != "" && f.Fabric != fabric {
			continue
		}
		if f.Stage != -1 && f.Stage != stage {
			continue
		}
		if f.Line != -1 && f.Line != line {
			continue
		}
		if !f.active(cycle) {
			continue
		}
		if in.draw(f.Rate, salt, uint64(i), fc, uint64(stage)<<32|uint64(uint32(line)), uint64(cycle)) {
			return true
		}
	}
	return false
}

// emit posts one injection on the trace track of the site it hit.
func (in *Injector) emit(where, what string, cycle int64) {
	if in.hub != nil {
		in.hub.Emit(track(where), what, cycle)
	}
}

// track names a fault site's trace track. The machine has three sites and
// their names are constants, so a fired fault builds no string — whether
// the hub keeps the event or its span buffer is full and drops it.
func track(where string) string {
	switch where {
	case "gmem":
		return "faults/gmem"
	case "fwd":
		return "faults/fwd"
	case "rev":
		return "faults/rev"
	}
	return "faults/" + where // a fabric under test with a name of its own
}

// jamScanCap bounds JamDelay's look-ahead.
const jamScanCap = 4096

// Draw salts keep the fault streams of different kinds decorrelated
// even when they key on the same component and cycle.
const (
	saltStall uint64 = 1
	saltJam   uint64 = 2
	saltDrop  uint64 = 3
	saltNack  uint64 = 4
)

// fabricCode maps a fabric name to a draw-key component (FNV-1a).
func fabricCode(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// draw is a Bernoulli trial with probability rate, keyed on the plan
// seed and the caller-supplied component/cycle words. It is a pure
// function: the counter-based PRNG hashes its inputs instead of
// advancing shared state, which is what keeps fault schedules identical
// across worker counts.
func (in *Injector) draw(rate float64, words ...uint64) bool {
	if rate >= 1 {
		return true
	}
	h := splitmix(in.plan.Seed ^ 0x9e3779b97f4a7c15)
	for _, w := range words {
		h = splitmix(h ^ w)
	}
	// 53 uniform mantissa bits → [0, 1).
	return float64(h>>11)/(1<<53) < rate
}

// splitmix is the SplitMix64 finalizer, a well-mixed 64-bit hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

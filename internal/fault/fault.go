// Package fault injects deterministic hardware faults into the Cedar
// model: dead or stalling global-memory banks, contended or lossy
// network stages, and transient NACKs on the prefetch request path.
//
// A Plan is pure data — a seed plus a list of fault descriptions — and
// every injection decision is a pure function of (seed, component,
// cycle): draws come from a counter-based PRNG, never from shared
// mutable state, so a faulted run is byte-identical at any worker
// count, exactly like a healthy one. The Injector built from a Plan is
// the only object the machine's components consult, and a nil Injector
// is a valid "no faults" instance whose every query is false.
package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Kind names a fault mechanism.
type Kind uint8

// Fault kinds.
const (
	// KindUnknown is the zero value; plans must name a real kind.
	KindUnknown Kind = iota
	// BankDead removes a global-memory module from service for the whole
	// run. Interleaving remaps around it (graceful degradation): the
	// machine keeps its data and its answers, it just loses bandwidth.
	BankDead
	// BankStall adds Extra cycles of service latency to a module's
	// accesses with probability Rate per initiation.
	BankStall
	// StageJam blocks an output wire of a network stage with probability
	// Rate per cycle, modeling a contended or flaky switch.
	StageJam
	// LinkDrop loses a prefetch packet traversing a network wire with
	// probability Rate. Only idempotent prefetch read traffic is ever
	// dropped; the PFU's retry machinery recovers the element.
	LinkDrop
	// PFUNack makes a module bounce a prefetch read with a NACK reply
	// with probability Rate per initiation, modeling a busy
	// synchronization processor refusing optional traffic.
	PFUNack
)

var kindNames = map[Kind]string{
	BankDead:  "bank-dead",
	BankStall: "bank-stall",
	StageJam:  "stage-jam",
	LinkDrop:  "link-drop",
	PFUNack:   "pfu-nack",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("fault: cannot marshal kind %d", uint8(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("fault: kind must be a string: %w", err)
	}
	for kk, name := range kindNames {
		if name == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("fault: unknown kind %q (want one of %s)", s, strings.Join(kindNameList(), ", "))
}

func kindNameList() []string {
	names := make([]string, 0, len(kindNames))
	for _, n := range kindNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fault is one injected defect. Which fields matter depends on Kind.
type Fault struct {
	Kind Kind `json:"kind"`

	// Module selects a global-memory module for BankDead, BankStall and
	// PFUNack. -1 means every module (not valid for BankDead).
	Module int `json:"module,omitempty"`

	// Fabric selects a network for StageJam and LinkDrop: "fwd", "rev",
	// or "" for both.
	Fabric string `json:"fabric,omitempty"`
	// Stage selects a network stage; -1 means every stage.
	Stage int `json:"stage,omitempty"`
	// Line selects an output wire within the stage; -1 means every line.
	Line int `json:"line,omitempty"`

	// From and Until bound the active window in cycles; Until 0 means
	// open-ended.
	From  int64 `json:"from,omitempty"`
	Until int64 `json:"until,omitempty"`

	// Rate is the per-opportunity firing probability in [0, 1]. BankDead
	// ignores it.
	Rate float64 `json:"rate,omitempty"`

	// Extra is the added service latency in cycles for BankStall.
	Extra int64 `json:"extra,omitempty"`
}

// active reports whether the fault's window covers cycle.
func (f *Fault) active(cycle int64) bool {
	return cycle >= f.From && (f.Until == 0 || cycle < f.Until)
}

// Plan is a complete, seed-deterministic fault scenario.
type Plan struct {
	// Seed keys every probability draw. Two plans with the same faults
	// but different seeds fire at different cycles.
	Seed uint64 `json:"seed"`

	Faults []Fault `json:"faults"`
}

// Validate checks the plan against machine-independent invariants.
// Machine-dependent checks (module in range) happen in NewInjector.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		where := fmt.Sprintf("fault %d (%s)", i, f.Kind)
		switch f.Kind {
		case BankDead:
			if f.Module < 0 {
				return fmt.Errorf("fault: %s: needs an explicit module ≥ 0", where)
			}
		case BankStall:
			if f.Module < -1 {
				return fmt.Errorf("fault: %s: module must be ≥ -1", where)
			}
			if f.Extra < 1 {
				return fmt.Errorf("fault: %s: needs extra ≥ 1 stall cycles", where)
			}
		case StageJam, LinkDrop:
			if f.Fabric != "" && f.Fabric != "fwd" && f.Fabric != "rev" {
				return fmt.Errorf("fault: %s: fabric must be \"fwd\", \"rev\" or empty, got %q", where, f.Fabric)
			}
			if f.Stage < -1 || f.Line < -1 {
				return fmt.Errorf("fault: %s: stage and line must be ≥ -1", where)
			}
		case PFUNack:
			if f.Module < -1 {
				return fmt.Errorf("fault: %s: module must be ≥ -1", where)
			}
		default:
			return fmt.Errorf("fault: fault %d: unknown kind %d", i, uint8(f.Kind))
		}
		if f.Kind != BankDead {
			if f.Rate <= 0 || f.Rate > 1 {
				return fmt.Errorf("fault: %s: rate must be in (0, 1], got %g", where, f.Rate)
			}
		}
		if f.From < 0 {
			return fmt.Errorf("fault: %s: from must be ≥ 0", where)
		}
		if f.Until != 0 && f.Until <= f.From {
			return fmt.Errorf("fault: %s: until %d must be 0 (open) or > from %d", where, f.Until, f.From)
		}
	}
	return nil
}

// Load reads and validates a JSON plan file.
func Load(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// Hash returns a short content hash of the plan for run-metadata headers:
// 16 hex digits of the SHA-256 of the seed and the %#v rendering of the
// faults. Nil and empty plans hash to "".
func (p *Plan) Hash() string {
	if p == nil || len(p.Faults) == 0 {
		return ""
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%d:%#v", p.Seed, p.Faults))
	return hex.EncodeToString(sum[:8])
}

// ErrDegraded marks a run that completed (or was abandoned) in degraded
// mode: faults exhausted a retry budget or starved the program past its
// cycle limit. Callers report the partial result instead of crashing.
var ErrDegraded = errors.New("fault: degraded run")

// DemoPlan is the scenario the CLIs run when -faults is given no plan
// file: one dead memory bank, a jammed first network stage, and
// transient NACKs — the "dead bank + network stage fault" smoke case.
func DemoPlan() *Plan {
	return &Plan{
		Seed: 0xCEDA2,
		Faults: []Fault{
			{Kind: BankDead, Module: 3},
			{Kind: StageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
			{Kind: PFUNack, Module: -1, Rate: 0.02},
		},
	}
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"cedar/internal/core"
	"cedar/internal/scope"
)

// Artifact is one campaign execution, written as BENCH_<area>.json: a
// header, a function of the campaign config, and the Deterministic
// section, a pure function of it too, byte-identical at any worker count,
// on either engine and across machines. It records the campaign's inputs
// and never its host, so a committed artifact is compared whole.
type Artifact struct {
	Header        Header        `json:"header"`
	Deterministic Deterministic `json:"deterministic"`
}

// Header is the self-describing run metadata: schema version, tool,
// campaign identity, and the fault plans in play. It names the jobs
// values the campaign ran at, so runs of one campaign at other jobs
// lists compare their DeterministicBytes, not their headers.
type Header struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	Area   string `json:"area"`
	Notes  string `json:"notes,omitempty"`
	// Jobs lists the worker counts the matrix was executed at.
	Jobs []int `json:"jobs"`
	// Points is the matrix size (machines × workloads × faults).
	Points int `json:"points"`
	// Faults records each fault axis entry's seed and plan hash, so an
	// artifact can be matched to the exact plans that produced it.
	Faults []FaultMeta `json:"faults,omitempty"`
}

// FaultMeta identifies one resolved fault plan.
type FaultMeta struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed,omitempty"`
	// Plan is the short content hash of the plan ("" for healthy).
	Plan string `json:"plan,omitempty"`
}

// Deterministic is the byte-comparable section: every field is a pure
// function of the campaign config.
type Deterministic struct {
	Points []PointResult `json:"points"`
}

// PointResult is one matrix point's deterministic outcome.
type PointResult struct {
	// ID is "machine/workload/fault" — the axes join the point came from.
	ID       string `json:"id"`
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Fault    string `json:"fault"`
	Outcome
}

// Outcome is the identity-free simulation result — what a campaign point
// records and a cedarserve response carries.
type Outcome struct {
	// Status is "ok" or "degraded" (the fault plan exhausted a retry
	// budget or starved the program; partial timing is still reported).
	Status    string  `json:"status"`
	SimCycles int64   `json:"simcycles"`
	Flops     int64   `json:"flops"`
	MFLOPS    float64 `json:"mflops"`
	// Faults is the machine's injection/recovery counters (zero when
	// healthy).
	Faults core.FaultCounters `json:"faults"`
	// Metrics is the scope snapshot filtered to the campaign's metric
	// prefixes.
	Metrics []scope.Sample `json:"metrics,omitempty"`
	// Attribution is the busy/stall/idle cycle breakdown per hardware
	// class.
	Attribution []scope.AttrRow `json:"attribution,omitempty"`
}

// DeterministicBytes returns the canonical encoding of the deterministic
// section — the unit of byte comparison for the determinism gates.
func (a *Artifact) DeterministicBytes() ([]byte, error) {
	b, err := json.MarshalIndent(&a.Deterministic, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encode deterministic section: %w", err)
	}
	return b, nil
}

// Encode renders the whole artifact as indented JSON with a trailing
// newline (committed-artifact friendly).
func (a *Artifact) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return nil, fmt.Errorf("bench: encode artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// Write writes the artifact to path.
func (a *Artifact) Write(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// ReadArtifact loads an artifact file, checking its schema version.
func ReadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if a.Header.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: artifact schema %d, tool speaks %d", path, a.Header.Schema, SchemaVersion)
	}
	return &a, nil
}

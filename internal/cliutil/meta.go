package cliutil

import (
	"runtime"

	"cedar/internal/fault"
)

// MetaSchema versions the run-metadata header format (3: the header no
// longer names an intra-run worker bound, there being one engine
// schedule).
const MetaSchema = 3

// Meta is the self-describing run-metadata header embedded in JSON
// artifacts (cedarsim -json; cedarbench carries the same facts in its
// own header): enough to tell, from the artifact alone, which tool
// produced it under which fault plan and worker configuration. The
// host-parallelism fields — Jobs, GoMaxProcs, NumCPU — may
// differ between byte-compared runs without the payload differing;
// consumers comparing artifacts across worker configurations must
// compare the payload, not the header.
type Meta struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	Jobs   int    `json:"jobs"`
	// GoMaxProcs and NumCPU record how much host parallelism was actually
	// available, so a committed artifact's measured throughput can be
	// read in context.
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// FaultSeed and FaultPlan identify the run's fault plan (absent when
	// healthy); FaultPlan is the plan's short content hash.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	FaultPlan string `json:"fault_plan,omitempty"`
}

// NewMeta builds the header for tool at the given -jobs value (0 =
// GOMAXPROCS) under the given plan (nil for a healthy run).
func NewMeta(tool string, jobs int, plan *fault.Plan) Meta {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	m := Meta{
		Schema:     MetaSchema,
		Tool:       tool,
		Jobs:       jobs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if plan != nil {
		m.FaultSeed = plan.Seed
		m.FaultPlan = plan.Hash()
	}
	return m
}

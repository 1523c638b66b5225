// Package bench is the declarative performance-campaign runner — the
// measurement substrate for the repo's own performance story. A Campaign
// is one JSON config declaring a matrix of (machine parameters ×
// workload × fault plan), plus the worker counts to execute it at; Run
// drives every point through the cedarfleet pool and emits a
// BENCH_<area>.json Artifact whose deterministic section — simcycles,
// scope counter snapshots, busy/stall/idle attribution — is
// byte-identical at any worker count. The artifact records no host fact,
// so cmd/cedarbench, the CLI face, writes the same bytes on any machine,
// and TestCampaignsMatchTheCommittedBaselines pins the committed
// campaigns' artifacts under bench/ whole.
package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/params"
)

// SchemaVersion identifies the campaign-config and artifact wire format.
// Bump it on any incompatible change so ReadArtifact refuses an old
// baseline loudly instead of comparing apples to oranges.
const SchemaVersion = 1

// Campaign declares one benchmark matrix. The experiment points are the
// cross product Machines × Workloads × Faults; every point is one whole
// machine simulation dispatched to the fleet pool.
type Campaign struct {
	// Schema is the config format version; 0 means "current".
	Schema int `json:"schema,omitempty"`
	// Area names the artifact: results are written as BENCH_<area>.json.
	Area string `json:"area"`
	// Notes is free-form provenance copied into the artifact header.
	Notes string `json:"notes,omitempty"`
	// Machines, Workloads and Faults are the matrix axes. Faults may be
	// empty, which means a single healthy entry.
	Machines  []MachineSpec  `json:"machines"`
	Workloads []WorkloadSpec `json:"workloads"`
	Faults    []FaultSpec    `json:"faults,omitempty"`
	// Jobs lists the fleet worker counts to execute the matrix at, one
	// full pass per value. The deterministic section must agree
	// byte-for-byte across passes (Run verifies this). Empty means a
	// single pass at 1.
	Jobs []int `json:"jobs,omitempty"`
	// Metrics lists the scope counter/gauge name prefixes captured into
	// each point's deterministic record ("gmem.", "pfu.", ...). Empty
	// selects DefaultMetrics. A whole-machine snapshot would bloat the
	// committed artifacts, so points carry a curated slice.
	Metrics []string `json:"metrics,omitempty"`
}

// DefaultMetrics is the metric-prefix filter applied when a campaign
// does not name its own.
var DefaultMetrics = []string{"engine.cycle", "gmem.", "pfu.", "fault."}

// MachineSpec is one machine axis entry: the default Cedar with named
// overrides. Zero fields keep the paper configuration.
type MachineSpec struct {
	Name string `json:"name"`
	// Scaled, when > 0, starts from params.Scaled(Scaled) — the PPT5
	// scaled-Cedar base — instead of params.Default().
	Scaled        int `json:"scaled,omitempty"`
	Clusters      int `json:"clusters,omitempty"`
	CEsPerCluster int `json:"ces_per_cluster,omitempty"`
	MemModules    int `json:"mem_modules,omitempty"`
	NetQueueWords int `json:"net_queue_words,omitempty"`
	// Fabric selects the interconnect: "", "omega" or "crossbar".
	Fabric string `json:"fabric,omitempty"`
}

// Params materializes the machine parameter set.
func (ms MachineSpec) Params() params.Machine {
	p := params.Default()
	if ms.Scaled > 0 {
		p = params.Scaled(ms.Scaled)
	}
	if ms.Clusters > 0 {
		p.Clusters = ms.Clusters
	}
	if ms.CEsPerCluster > 0 {
		p.CEsPerCluster = ms.CEsPerCluster
	}
	if ms.MemModules > 0 {
		p.MemModules = ms.MemModules
	}
	if ms.NetQueueWords > 0 {
		p.NetQueueWords = ms.NetQueueWords
	}
	return p
}

// fabricKind maps the spec's fabric name to the core option.
func (ms MachineSpec) fabricKind() (core.FabricKind, error) {
	switch ms.Fabric {
	case "", "omega":
		return core.FabricOmega, nil
	case "crossbar":
		return core.FabricCrossbar, nil
	}
	return core.FabricOmega, fmt.Errorf("bench: machine %q: unknown fabric %q (want omega or crossbar)", ms.Name, ms.Fabric)
}

// Validate checks the machine spec in isolation — what cedarserve runs
// on a submitted config before building anything: a known fabric, and a
// parameter set core.New will accept, so an impossible machine is a
// rejected config and never a failed (and cached) simulation.
func (ms MachineSpec) Validate() error {
	if _, err := ms.fabricKind(); err != nil {
		return err
	}
	if err := ms.Params().Validate(); err != nil {
		return fmt.Errorf("bench: machine %q: %w", ms.Name, err)
	}
	return nil
}

// Validate checks the workload spec in isolation: a known kind, no
// field set that the kind's kernel never reads (the whole spec is hashed
// into the cedarserve response key, so such a field would make one
// point many), names the kind knows, non-negative sizes.
func (ws WorkloadSpec) Validate() error {
	_, err := ws.checked()
	return err
}

// Fits reports whether a machine with parameters m can host the
// workload: the checks Validate cannot make without the machine. Its
// callers run it before building anything, so a point its machine cannot
// host is a refused request, not a failed run: cedarsim and the catalogue
// (tables.Fit), cedarserve, and Campaign.Validate for every machine ×
// workload cell. It states one need today: membw's participating CEs.
func (ws WorkloadSpec) Fits(m params.Machine) error {
	if need := cmp.Or(ws.CEs, 1); ws.Kind == "membw" && need > m.CEs() {
		return fmt.Errorf("needs %d CEs; the machine has %d", need, m.CEs())
	}
	return nil
}

// checked is Validate that also returns the spec's kind.
func (ws WorkloadSpec) checked() (kind, error) {
	k, err := lookup("kind", ws.Kind, kinds)
	if err != nil {
		return kind{}, fmt.Errorf("bench: workload %q: %w", ws.Name, err)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"n", ws.N != 0}, {"variant", ws.Variant != ""}, {"sweeps", ws.Sweeps != 0},
		{"iters", ws.Iters != 0}, {"bw", ws.BW != 0}, {"max_ces", ws.MaxCEs != 0},
		{"ces", ws.CEs != 0}, {"gap", ws.Gap != 0}, {"stride", ws.Stride != 0},
		{"code", ws.Code != ""}, {"sched", ws.Sched != ""}, {"block", ws.Block != 0},
		{"nosync", ws.NoSync},
	} {
		if f.set && !slices.Contains(k.reads, f.name) {
			return kind{}, fmt.Errorf("bench: workload %q: kind %q does not read %q (it reads %s)",
				ws.Name, ws.Kind, f.name, strings.Join(k.reads, ", "))
		}
	}
	if k.check != nil {
		if err := k.check(ws); err != nil {
			return kind{}, fmt.Errorf("bench: workload %q: %w", ws.Name, err)
		}
	}
	if ws.N < 0 || ws.Sweeps < 0 || ws.Iters < 0 || ws.BW < 0 || ws.MaxCEs < 0 ||
		ws.CEs < 0 || ws.Stride < 0 || ws.Gap < 0 || ws.Block < 0 {
		return kind{}, fmt.Errorf("bench: workload %q: sizes must be non-negative", ws.Name)
	}
	return k, nil
}

// WorkloadSpec is one workload axis entry: a paper kernel plus its
// sizing. Kind selects the kernel; the other fields parameterize it and
// the ones its kind does not read (kinds) must stay zero.
type WorkloadSpec struct {
	Name string `json:"name"`
	// Kind names the kernel: one of kinds.
	Kind string `json:"kind"`
	// N is the problem order; a kind-specific default applies when 0. For
	// membw it is the per-CE word count (default 4096), for xdoall the
	// iteration count.
	N int `json:"n,omitempty"`
	// Variant selects the rank-update memory mode ("nopref", "pref"
	// (default) or "cache"), the Perfect code's version (perfect.Versions)
	// or the xdoall loop body ("empty", "balanced" or "imbalanced").
	Variant string `json:"variant,omitempty"`
	// Sweeps is the vectorload sweep count (default 1).
	Sweeps int `json:"sweeps,omitempty"`
	// Iters is the CG iteration count (default 2).
	Iters int `json:"iters,omitempty"`
	// BW is the banded-matvec diagonal count (default 11).
	BW int `json:"bw,omitempty"`
	// MaxCEs restricts the processor count for cg/banded/xdoall; 0 = all.
	MaxCEs int `json:"max_ces,omitempty"`
	// CEs is the membw participating-CE count (default 1).
	CEs int `json:"ces,omitempty"`
	// Gap is the latency-probe scalar pause between dependent loads in
	// cycles (default 0: back-to-back round trips).
	Gap int `json:"gap,omitempty"`
	// Stride is the membw access stride in words (default 1; MemModules
	// aims every reference at one module, the paper's worst case).
	Stride int `json:"stride,omitempty"`
	// Code names the Perfect code, exactly as perfect.All spells it
	// ("QCD").
	Code string `json:"code,omitempty"`
	// Sched is the xdoall claim policy: "static", "self" or "guided".
	Sched string `json:"sched,omitempty"`
	// Block is the prefblock prefetch block in words (default 0: no
	// prefetch).
	Block int `json:"block,omitempty"`
	// NoSync makes xdoall claim iterations through the library's lock path
	// instead of the Cedar synchronization instructions.
	NoSync bool `json:"nosync,omitempty"`
}

// FaultSpec is one fault axis entry: no plan (healthy), the built-in
// demo plan, or an inline plan. At most one source may be set. The
// vocabulary names no file, so a campaign is self-contained and a
// cedarserve client cannot point the daemon at a server-side path.
type FaultSpec struct {
	Name string `json:"name"`
	// Demo selects fault.DemoPlan (dead bank + stage jam + NACKs).
	Demo bool `json:"demo,omitempty"`
	// Plan is an inline plan.
	Plan *fault.Plan `json:"plan,omitempty"`
}

// Resolve returns the spec's plan (nil for a healthy entry). It is the
// one place the sources' mutual exclusion and an inline plan's validity
// are checked — the campaign runner and cedarserve both come through
// here.
func (fs FaultSpec) Resolve() (*fault.Plan, error) {
	switch {
	case fs.Demo && fs.Plan != nil:
		return nil, fmt.Errorf("bench: fault %q: demo and plan are mutually exclusive", fs.Name)
	case fs.Demo:
		return fault.DemoPlan(), nil
	case fs.Plan != nil:
		if err := fs.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("bench: fault %q: %w", fs.Name, err)
		}
		return fs.Plan, nil
	}
	return nil, nil
}

// Validate checks the campaign against the schema: a named area, at
// least one entry per mandatory axis, unique non-empty names, known
// kinds, and positive jobs values. Fault plans are validated when
// resolved at run time.
func (c *Campaign) Validate() error {
	if c.Schema != 0 && c.Schema != SchemaVersion {
		return fmt.Errorf("bench: campaign schema %d not supported (tool speaks %d)", c.Schema, SchemaVersion)
	}
	if c.Area == "" {
		return fmt.Errorf("bench: campaign needs an area (names the BENCH_<area>.json artifact)")
	}
	if strings.ContainsAny(c.Area, "/\\ ") {
		return fmt.Errorf("bench: area %q must be a bare token (it becomes a file name)", c.Area)
	}
	if len(c.Machines) == 0 {
		return fmt.Errorf("bench: campaign needs at least one machine")
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("bench: campaign needs at least one workload")
	}
	check := func(axis, name string, seen map[string]bool) error {
		if name == "" {
			return fmt.Errorf("bench: every %s needs a name", axis)
		}
		if strings.Contains(name, "/") {
			return fmt.Errorf("bench: %s name %q must not contain '/' (names join into point IDs)", axis, name)
		}
		if seen[name] {
			return fmt.Errorf("bench: duplicate %s name %q", axis, name)
		}
		seen[name] = true
		return nil
	}
	seen := map[string]bool{}
	for _, m := range c.Machines {
		if err := check("machine", m.Name, seen); err != nil {
			return err
		}
		if err := m.Validate(); err != nil {
			return err
		}
	}
	seen = map[string]bool{}
	for _, w := range c.Workloads {
		if err := check("workload", w.Name, seen); err != nil {
			return err
		}
		if err := w.Validate(); err != nil {
			return err
		}
	}
	// A cell its machine cannot host fails the campaign here, at Load and
	// by name; in the run it would fail only after every cell before it
	// had simulated.
	for _, m := range c.Machines {
		p := m.Params()
		for _, w := range c.Workloads {
			if err := w.Fits(p); err != nil {
				return fmt.Errorf("bench: cell %s/%s: %w", m.Name, w.Name, err)
			}
		}
	}
	seen = map[string]bool{}
	for _, f := range c.Faults {
		if err := check("fault", f.Name, seen); err != nil {
			return err
		}
	}
	for _, j := range c.Jobs {
		if j < 1 {
			return fmt.Errorf("bench: jobs values must be ≥ 1, got %d", j)
		}
	}
	return nil
}

// Load reads and validates a campaign config file. A field the schema
// does not know is an error, not a silently dropped setting.
func Load(path string) (*Campaign, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

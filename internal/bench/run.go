package bench

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/kernels"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// RunOptions tunes one campaign execution.
type RunOptions struct {
	// Jobs, when > 0, overrides the campaign's jobs list with this single
	// worker count — the CLI's -jobs flag.
	Jobs int
	// Now, when non-nil, supplies the wall clock for the measured
	// section (the CLI passes time.Now). Nil omits wall times — library
	// and test runs stay clean under the nondeterminism lint, and the
	// deterministic section never depends on the clock either way.
	Now func() time.Time
	// Progress, when non-nil, receives one line per matrix pass.
	Progress io.Writer
	// Stepped builds every point's machine as the pure per-cycle reference
	// (core.Options.Stepped) — the CLI's -stepped flag. The deterministic
	// section must not change; compare wall times to price the event
	// wheel.
	Stepped bool
}

// Point is one experiment point — this workload, on this machine, under
// this plan (nil: healthy) — and the only path from that description to
// an outcome: a campaign cell, a cedarserve request and a row of any
// internal/tables sweep are all a Point, built by Build and run by Run.
type Point struct {
	Machine  MachineSpec
	Workload WorkloadSpec
	Plan     *fault.Plan
}

// PointOutcome is what a point's machine measured.
type PointOutcome struct {
	kernels.Result
	// Status is "ok", or "degraded" when the plan starved the program or
	// exhausted a retry budget; Err is then the degradation, and Cycles
	// what the machine had run before giving up.
	Status string
	Err    error
	// Faults is the machine's injection/recovery counters (zero when
	// healthy).
	Faults core.FaultCounters
}

// Build is the one place an experiment's machine is built: the spec's
// parameters and fabric, under the point's plan, observed by hub (nil:
// unobserved); stepped registers every component through sim.Plain
// (core.Options.Stepped).
func (pt Point) Build(hub *scope.Hub, stepped bool) (*core.Machine, error) {
	fabric, err := pt.Machine.fabricKind()
	if err != nil {
		return nil, err
	}
	return core.New(pt.Machine.Params(), core.Options{Fabric: fabric, Scope: hub, Faults: pt.Plan, Stepped: stepped})
}

// Run validates the point's workload, builds its machine, runs the
// workload's kernel and applies the one degraded rule: a run abandoned
// under its plan is an outcome with Status "degraded", not an error. Any
// other failure is returned unwrapped; callers add the point's name.
func (pt Point) Run(hub *scope.Hub, stepped bool) (PointOutcome, error) {
	k, err := pt.Workload.checked()
	if err != nil {
		return PointOutcome{}, err
	}
	m, err := pt.Build(hub, stepped)
	if err != nil {
		return PointOutcome{}, err
	}
	res, err := k.run(m, pt.Workload)
	out := PointOutcome{Result: res, Status: "ok", Faults: m.FaultCounters()}
	switch {
	case err == nil:
	case errors.Is(err, fault.ErrDegraded):
		// Report what the machine measured before giving up.
		out.Status, out.Err = "degraded", err
		if out.Cycles == 0 {
			out.Cycles = m.Engine.Cycle()
		}
	default:
		return PointOutcome{}, err
	}
	return out, nil
}

// Run executes the campaign: one full matrix pass per jobs value, every
// point dispatched through the fleet pool and simulated. The first pass
// fills the artifact's deterministic section; every later pass re-derives
// it and byte-compares against the first, so a successful Run is itself
// a determinism proof across worker counts.
// Points that degrade under their fault plan report status "degraded"
// with partial timing; any other failure aborts the campaign.
func Run(c *Campaign, opt RunOptions) (*Artifact, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	jobsList := c.Jobs
	if opt.Jobs > 0 {
		jobsList = []int{opt.Jobs}
	}
	if len(jobsList) == 0 {
		jobsList = []int{1}
	}
	faults := c.Faults
	if len(faults) == 0 {
		faults = []FaultSpec{{Name: "healthy"}}
	}
	metrics := c.Metrics
	if len(metrics) == 0 {
		metrics = DefaultMetrics
	}

	plans := make([]*fault.Plan, len(faults))
	faultMeta := make([]FaultMeta, len(faults))
	for i, fs := range faults {
		plan, err := fs.Resolve()
		if err != nil {
			return nil, err
		}
		plans[i] = plan
		faultMeta[i] = FaultMeta{Name: fs.Name, Plan: plan.Hash()}
		if plan != nil {
			faultMeta[i].Seed = plan.Seed
		}
	}

	// cells[i] names points[i]: the axis entries it is the join of.
	var points []Point
	var cells []PointResult
	for _, ms := range c.Machines {
		for _, w := range c.Workloads {
			for fi, fs := range faults {
				points = append(points, Point{Machine: ms, Workload: w, Plan: plans[fi]})
				cells = append(cells, PointResult{
					ID:      ms.Name + "/" + w.Name + "/" + fs.Name,
					Machine: ms.Name, Workload: w.Name, Fault: fs.Name,
				})
			}
		}
	}

	art := &Artifact{Header: Header{
		Schema: SchemaVersion,
		Tool:   "cedarbench",
		Area:   c.Area,
		Notes:  c.Notes,
		Jobs:   jobsList,
		Points: len(points),
		Faults: faultMeta,
	}}
	art.Measured.GoMaxProcs = runtime.GOMAXPROCS(0)
	art.Measured.NumCPU = runtime.NumCPU()

	var baseline []byte
	for passIdx, j := range jobsList {
		fjobs := make([]fleet.Job[Outcome], len(points))
		for i, pt := range points {
			// The job builds its own hub (the fleet-level hub stays nil) and
			// returns its metrics and attribution as plain result data.
			fjobs[i].Run = func(*scope.Hub) (Outcome, error) {
				return runPoint(cells[i].ID, pt, metrics, opt)
			}
		}

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var start time.Time
		if opt.Now != nil {
			start = opt.Now()
		}
		results, err := fleet.Run(fleet.Config{Jobs: j}, fjobs)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)

		det := Deterministic{Points: slices.Clone(cells)}
		for i, out := range results {
			det.Points[i].Outcome = out
		}

		probe := Artifact{Deterministic: det}
		b, err := probe.DeterministicBytes()
		if err != nil {
			return nil, err
		}
		if passIdx == 0 {
			art.Deterministic = det
			baseline = b
			for i, out := range results {
				if out.WallNS > 0 {
					art.Measured.Points = append(art.Measured.Points, PointMeasure{ID: cells[i].ID, WallNS: out.WallNS})
				}
			}
		} else if !bytes.Equal(b, baseline) {
			return nil, fmt.Errorf("bench: determinism violation — deterministic section at jobs=%d differs from jobs=%d",
				j, jobsList[0])
		}

		run := RunMeasure{Jobs: j, Mallocs: ms1.Mallocs - ms0.Mallocs, AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc}
		if opt.Now != nil {
			run.WallNS = opt.Now().Sub(start).Nanoseconds()
		}
		art.Measured.Runs = append(art.Measured.Runs, run)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "bench %s: pass %d/%d (jobs=%d): %d points\n",
				c.Area, passIdx+1, len(jobsList), j, len(points))
		}
	}
	return art, nil
}

// RunSpec executes one (machine × workload × fault plan) point on a
// freshly built machine with a private hub — cedarserve's entry into the
// bench vocabulary. metrics filters the scope snapshot captured into the
// outcome (nil selects DefaultMetrics); plan nil runs healthy. A run
// that degrades under its plan returns Status "degraded" with partial
// timing and a nil error, exactly like a campaign point.
func RunSpec(ms MachineSpec, ws WorkloadSpec, plan *fault.Plan, metrics []string) (Outcome, error) {
	if err := ws.Validate(); err != nil {
		return Outcome{}, err
	}
	if len(metrics) == 0 {
		metrics = DefaultMetrics
	}
	return runPoint(ms.Name+"/"+ws.Name, Point{Machine: ms, Workload: ws, Plan: plan}, metrics, RunOptions{})
}

// runPoint is Point.Run on a private hub, then the hub's snapshot: the
// identity-free outcome. Of opt it reads the clock and the engine choice;
// id names the point in errors.
func runPoint(id string, pt Point, metrics []string, opt RunOptions) (Outcome, error) {
	hub := scope.NewHub()
	// An Outcome carries the hub's metrics and attribution, never a span:
	// capture nothing rather than a record per prefetch block and phase.
	hub.SetTraceCap(0)
	var start time.Time
	if opt.Now != nil {
		start = opt.Now()
	}
	res, err := pt.Run(hub, opt.Stepped)
	if err != nil {
		return Outcome{}, fmt.Errorf("bench: point %s: %w", id, err)
	}
	out := Outcome{Status: res.Status, SimCycles: res.Cycles, Flops: res.Flops, MFLOPS: res.MFLOPS, Faults: res.Faults}
	if opt.Now != nil {
		out.WallNS = opt.Now().Sub(start).Nanoseconds()
	}
	out.Metrics = filterMetrics(hub.Snapshot(), metrics)
	out.Attribution = hub.Attribution()
	return out, nil
}

// kind is one workload kind, whole: the WorkloadSpec fields its kernel
// reads (by JSON name; Validate rejects any other), the check that the
// names in those fields are ones the kind knows (nil: it reads no name)
// and the kernel call with the kind's defaults applied. Adding a kind is
// one entry in kinds, under its name.
type kind struct {
	reads []string
	check func(WorkloadSpec) error
	run   func(*core.Machine, WorkloadSpec) (kernels.Result, error)
}

var kinds = map[string]kind{
	"banded": {[]string{"n", "bw", "max_ces"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.Banded(m, kernels.BandedConfig{N: cmp.Or(w.N, 64), BW: cmp.Or(w.BW, 11), MaxCEs: w.MaxCEs})
	}},
	"cg": {[]string{"n", "iters", "max_ces"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.CG(m, kernels.CGConfig{N: cmp.Or(w.N, 64), Iters: cmp.Or(w.Iters, 2), MaxCEs: w.MaxCEs})
	}},
	"latency": {[]string{"n", "gap"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.LoadLatency(m, cmp.Or(w.N, 2000), int64(w.Gap))
	}},
	"membw": {[]string{"n", "ces", "stride"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		// The stream kernel does no arithmetic; bandwidth lives in the
		// gmem.* metrics, the deterministic cycle count is the result.
		pt, err := kernels.MemBW(m, cmp.Or(w.CEs, 1), int64(cmp.Or(w.Stride, 1)), cmp.Or(w.N, 4096))
		return kernels.Result{Result: core.Result{Cycles: pt.Cycles}}, err
	}},
	"perfect": {[]string{"code", "variant"}, func(w WorkloadSpec) error {
		_, _, err := w.perfectSpec()
		return err
	}, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		p, spec, _ := w.perfectSpec()
		out, err := perfect.RunOn(m, p, spec)
		return kernels.Result{Result: core.Result{Cycles: out.SimCycles, MFLOPS: out.MFLOPS, Seconds: out.Seconds}}, err
	}},
	"prefblock": {[]string{"n", "block"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.PanelSweep(m, cmp.Or(w.N, 64), w.Block)
	}},
	"rank": {[]string{"n", "variant"}, func(w WorkloadSpec) error {
		_, err := lookup("rank variant", cmp.Or(w.Variant, "pref"), rankModes)
		return err
	}, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.RankUpdate(m, cmp.Or(w.N, 64), rankModes[cmp.Or(w.Variant, "pref")])
	}},
	"startup": {nil, nil, func(m *core.Machine, _ WorkloadSpec) (kernels.Result, error) {
		return kernels.XDoallStartup(m)
	}},
	"trimat": {[]string{"n"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.TriMat(m, cmp.Or(w.N, 64))
	}},
	"vectorload": {[]string{"n", "sweeps"}, nil, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.VectorLoad(m, cmp.Or(w.N, 1024), cmp.Or(w.Sweeps, 1))
	}},
	"xdoall": {[]string{"n", "max_ces", "variant", "sched", "nosync"}, func(w WorkloadSpec) error {
		_, err := lookup("loop body", w.Variant, loopBodies)
		if err == nil {
			_, err = lookup("schedule", w.Sched, loopScheds)
		}
		return err
	}, func(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
		return kernels.Loop(m, kernels.LoopConfig{
			N: cmp.Or(w.N, 512), MaxCEs: w.MaxCEs, Body: loopBodies[w.Variant], Sched: loopScheds[w.Sched], NoSync: w.NoSync,
		})
	}},
}

// rankModes, loopBodies and loopScheds map the names a spec's variant
// and sched hold to the rank update's memory mode and the xdoall loop's
// body and claim policy.
var (
	rankModes  = map[string]kernels.RKMode{"pref": kernels.RKPref, "nopref": kernels.RKNoPref, "cache": kernels.RKCache}
	loopBodies = map[string]cfrt.BodyFn{
		"empty": kernels.EmptyBody, "balanced": kernels.BalancedBody, "imbalanced": kernels.ImbalancedBody,
	}
	loopScheds = map[string]cfrt.Schedule{
		"static": cfrt.StaticSchedule, "self": cfrt.SelfSchedule, "guided": cfrt.GuidedSchedule,
	}
)

// perfectSpec resolves a perfect workload's code and version, each by its
// one spelling; a hand version exists only where Table 4 has one.
func (ws WorkloadSpec) perfectSpec() (perfect.Profile, perfect.Spec, error) {
	codes := map[string]perfect.Profile{}
	for _, p := range perfect.All() {
		codes[p.Name] = p
	}
	p, err := lookup("Perfect code", ws.Code, codes)
	if err != nil {
		return p, perfect.Spec{}, err
	}
	spec, err := lookup("Perfect version", ws.Variant, perfect.Versions())
	if err == nil && spec.Variant == perfect.Hand && !perfect.HandOptimized()[ws.Code] {
		err = fmt.Errorf("%s has no hand version (Table 4 lists none)", ws.Code)
	}
	return p, spec, err
}

// lookup returns what m holds under name, or an error that lists the
// names m knows.
func lookup[V any](what, name string, m map[string]V) (V, error) {
	v, ok := m[name]
	if !ok {
		names := make([]string, 0, len(m))
		for known := range m {
			names = append(names, known)
		}
		slices.Sort(names)
		return v, fmt.Errorf("unknown %s %q (want one of %s)", what, name, strings.Join(names, ", "))
	}
	return v, nil
}

// filterMetrics keeps the samples whose name starts with any of the
// campaign's metric prefixes; input order (sorted by name) is preserved.
func filterMetrics(samples []scope.Sample, prefixes []string) []scope.Sample {
	var out []scope.Sample
	for _, s := range samples {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/kernels"
	"cedar/internal/params"
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

// point is one fully resolved matrix cell.
type point struct {
	id, machine, workload, fault string

	pm     params.Machine
	fabric core.FabricKind
	w      WorkloadSpec
	plan   *fault.Plan
}

// key is the point's run-cache key, over semantics only — the workload
// spec less its name, never the axis names — so coincidentally equal
// points simulate once.
func (pt point) key(metrics []string) string {
	w := pt.w
	w.Name = ""
	return fleet.Key("bench", pt.pm, int(pt.fabric), w, pt.plan.Fingerprint(), strings.Join(metrics, ","))
}

// Run executes the campaign: one full matrix pass per jobs value, each
// against a fresh private run cache, every point dispatched through the
// fleet pool. The first pass fills the artifact's deterministic section;
// every later pass re-derives it and byte-compares against the first, so
// a successful Run is itself a determinism proof across worker counts.
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
		plan, err := fs.Resolve(c.baseDir)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
		faultMeta[i] = FaultMeta{Name: fs.Name, Plan: plan.Hash()}
		if plan != nil {
			faultMeta[i].Seed = plan.Seed
		}
	}

	var points []point
	for _, ms := range c.Machines {
		fabric, err := ms.fabricKind()
		if err != nil {
			return nil, err
		}
		pm := ms.Params()
		for _, w := range c.Workloads {
			for fi, fs := range faults {
				points = append(points, point{
					id:       ms.Name + "/" + w.Name + "/" + fs.Name,
					machine:  ms.Name,
					workload: w.Name,
					fault:    fs.Name,
					pm:       pm,
					fabric:   fabric,
					w:        w,
					plan:     plans[fi],
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
		cache := fleet.NewCache()
		fjobs := make([]fleet.Job[Outcome], len(points))
		for i, pt := range points {
			fjobs[i] = fleet.Job[Outcome]{
				// The job builds its own hub internally (the fleet-level
				// hub stays nil) precisely so keyed jobs remain cacheable
				// while still capturing metrics and attribution as plain
				// result data.
				Key: pt.key(metrics),
				Run: func(*scope.Hub) (Outcome, error) {
					return runPoint(pt, metrics, opt)
				},
			}
		}

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var start time.Time
		if opt.Now != nil {
			start = opt.Now()
		}
		// Points that share a key share one Outcome, slices included; it
		// is only marshalled from here on.
		results, err := fleet.Run(fleet.Config{Jobs: j, Cache: cache}, fjobs)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)

		det := Deterministic{Points: make([]PointResult, len(points))}
		for i, out := range results {
			det.Points[i] = PointResult{
				ID: points[i].id, Machine: points[i].machine,
				Workload: points[i].workload, Fault: points[i].fault,
				Outcome: out,
			}
		}
		st := cache.Stats()
		det.Fleet = FleetStats{Lookups: st.Lookups, Misses: st.Misses, Served: st.Served(), HitRate: st.HitRate()}

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
					art.Measured.Points = append(art.Measured.Points, PointMeasure{ID: points[i].id, WallNS: out.WallNS})
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
			fmt.Fprintf(opt.Progress, "bench %s: pass %d/%d (jobs=%d): %d points, cache served %d/%d\n",
				c.Area, passIdx+1, len(jobsList), j, len(points), st.Served(), st.Lookups)
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
	fabric, err := ms.fabricKind()
	if err != nil {
		return Outcome{}, err
	}
	if err := ws.Validate(); err != nil {
		return Outcome{}, err
	}
	if len(metrics) == 0 {
		metrics = DefaultMetrics
	}
	pt := point{
		id:      ms.Name + "/" + ws.Name,
		machine: ms.Name, workload: ws.Name,
		pm: ms.Params(), fabric: fabric, w: ws, plan: plan,
	}
	return runPoint(pt, metrics, RunOptions{})
}

// runPoint simulates one matrix cell on a freshly built machine with a
// private hub, returning the identity-free outcome the cache stores.
// Of opt it reads the clock and the engine choice.
func runPoint(pt point, metrics []string, opt RunOptions) (Outcome, error) {
	hub := scope.NewHub()
	// An Outcome carries the hub's metrics and attribution, never a span:
	// capture nothing rather than a record per prefetch block and phase.
	hub.SetTraceCap(0)
	m, err := core.New(pt.pm, core.Options{Fabric: pt.fabric, Scope: hub, Faults: pt.plan, Stepped: opt.Stepped})
	if err != nil {
		return Outcome{}, fmt.Errorf("bench: point %s: %w", pt.id, err)
	}
	var start time.Time
	if opt.Now != nil {
		start = opt.Now()
	}
	res, err := runWorkload(m, pt.w)
	out := Outcome{Status: "ok"}
	switch {
	case err == nil:
		out.SimCycles, out.Flops, out.MFLOPS = res.Cycles, res.Flops, res.MFLOPS
	case errors.Is(err, fault.ErrDegraded):
		// The plan starved the program or exhausted a retry budget;
		// report what the machine measured before giving up.
		out.Status = "degraded"
		out.SimCycles, out.Flops, out.MFLOPS = res.Cycles, res.Flops, res.MFLOPS
		if out.SimCycles == 0 {
			out.SimCycles = m.Engine.Cycle()
		}
	default:
		return Outcome{}, fmt.Errorf("bench: point %s: %w", pt.id, err)
	}
	if opt.Now != nil {
		out.WallNS = opt.Now().Sub(start).Nanoseconds()
	}
	out.Faults = m.FaultCounters()
	out.Metrics = filterMetrics(hub.Snapshot(), metrics)
	out.Attribution = hub.Attribution()
	return out, nil
}

// runWorkload dispatches a workload spec to its kernel, applying the
// kind defaults documented on WorkloadSpec.
func runWorkload(m *core.Machine, w WorkloadSpec) (kernels.Result, error) {
	n := w.N
	pick := func(def int) int {
		if n > 0 {
			return n
		}
		return def
	}
	switch w.Kind {
	case "rank":
		mode := kernels.RKPref
		switch w.Variant {
		case "nopref":
			mode = kernels.RKNoPref
		case "cache":
			mode = kernels.RKCache
		}
		return kernels.RankUpdate(m, pick(64), mode)
	case "vectorload":
		sweeps := w.Sweeps
		if sweeps == 0 {
			sweeps = 1
		}
		return kernels.VectorLoad(m, pick(1024), sweeps)
	case "trimat":
		return kernels.TriMat(m, pick(64))
	case "cg":
		iters := w.Iters
		if iters == 0 {
			iters = 2
		}
		return kernels.CG(m, kernels.CGConfig{N: pick(64), Iters: iters, MaxCEs: w.MaxCEs})
	case "banded":
		bw := w.BW
		if bw == 0 {
			bw = 11
		}
		return kernels.Banded(m, kernels.BandedConfig{N: pick(64), BW: bw, MaxCEs: w.MaxCEs})
	case "membw":
		nce := w.CEs
		if nce == 0 {
			nce = 1
		}
		stride := int64(w.Stride)
		if stride == 0 {
			stride = 1
		}
		pt, err := kernels.MemBW(m, nce, stride, pick(4096))
		if err != nil {
			return kernels.Result{}, err
		}
		// The stream kernel does no arithmetic; bandwidth lives in the
		// gmem.* metrics, the deterministic cycle count is the result.
		return kernels.Result{Result: core.Result{Cycles: pt.Cycles}}, nil
	case "latency":
		return kernels.LoadLatency(m, pick(2000), int64(w.Gap))
	}
	return kernels.Result{}, fmt.Errorf("bench: unknown workload kind %q", w.Kind)
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

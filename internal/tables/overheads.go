package tables

import (
	"fmt"

	"cedar/internal/bench"
	"cedar/internal/params"
)

// OverheadsResult measures the §3.2 runtime library costs on the
// simulated machine: XDOALL startup (paper: ≈90 µs), per-iteration fetch
// without Cedar synchronization (≈30 µs), the same with Cedar
// synchronization, and CDOALL start (a few µs on the concurrency control
// bus).
type OverheadsResult struct {
	XDoallStartupUS  float64
	FetchNoSyncUS    float64
	FetchCedarSyncUS float64
	CDoallStartUS    float64
}

// RunOverheads performs the microbenchmarks. The five machine runs are
// independent points; the derived quantities are computed from the
// reassembled times.
func RunOverheads(env Env) (*OverheadsResult, error) {
	return runAs[*OverheadsResult](env, "overheads", Sizes{})
}

// overheadsIters is the long loop of each fetch-cost pair.
const overheadsIters = 64

// overheadsPoints: the startup probe times loop entry until the first
// iteration body executes (the paper's "typical loop startup latency").
// The others time the iteration fetch: the marginal cost per iteration of
// an empty loop, measured on one CE to avoid overlap (iterations - 1
// extra fetches), with and without Cedar synchronization.
func overheadsPoints(env Env, _ Sizes) []point {
	fetch := func(tag string, n int, sync bool) point {
		return env.point(fmt.Sprintf("overheads/fetch-%s-%d", tag, n), bench.MachineSpec{},
			bench.WorkloadSpec{Kind: "xdoall", N: n, MaxCEs: 1, Variant: "empty", Sched: "self", NoSync: !sync})
	}
	return []point{
		env.point("overheads/startup", bench.MachineSpec{}, bench.WorkloadSpec{Kind: "startup"}),
		fetch("lib", overheadsIters, false), fetch("lib", 1, false),
		fetch("sync", overheadsIters, true), fetch("sync", 1, true),
	}
}

func overheadsTable(_ Sizes, pts []point, t []bench.PointOutcome) Result {
	return &OverheadsResult{
		XDoallStartupUS:  t[0].Seconds * 1e6,
		FetchNoSyncUS:    (t[1].Seconds - t[2].Seconds) / float64(overheadsIters-1) * 1e6,
		FetchCedarSyncUS: (t[3].Seconds - t[4].Seconds) / float64(overheadsIters-1) * 1e6,
		// CDOALL start: booked cost of the concurrent-start broadcast.
		CDoallStartUS: float64(pts[0].Machine.Params().CDoallStart) * params.CycleNS / 1e3,
	}
}

// Format renders the measurements.
func (o *OverheadsResult) Format() string {
	return fmt.Sprintf(`runtime library overheads (measured on the simulated machine)
XDOALL loop startup:              %6.1f µs   (paper: ≈90 µs)
XDOALL iteration fetch (library): %6.1f µs   (paper: ≈30 µs)
XDOALL iteration fetch (Cedar sync): %5.1f µs  (the hardware-synchronization win)
CDOALL concurrent start:          %6.1f µs   (paper: a few µs)
`, o.XDoallStartupUS, o.FetchNoSyncUS, o.FetchCedarSyncUS, o.CDoallStartUS)
}

// overheadsClaims: §3.2's ≈90 µs XDOALL start, ≈30 µs library fetch and few-µs CDOALL start.
var overheadsClaims = []claim{
	{id: "XDOALL startup µs", kind: within, paper: 90, tol: 15,
		value: one(func(o *OverheadsResult) float64 { return o.XDoallStartupUS })},
	{id: "iteration fetch µs, library", kind: within, paper: 30, tol: 10,
		value: one(func(o *OverheadsResult) float64 { return o.FetchNoSyncUS })},
	{id: "iteration fetch, library over Cedar sync", kind: floor, paper: 2,
		value: one(func(o *OverheadsResult) float64 { return o.FetchNoSyncUS / o.FetchCedarSyncUS })},
	{id: "CDOALL start µs", kind: within, paper: 5, tol: 4, // "a few µs"
		value: one(func(o *OverheadsResult) float64 { return o.CDoallStartUS })},
}

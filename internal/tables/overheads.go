package tables

import (
	"fmt"

	"cedar/internal/bench"
	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/kernels"
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
		return env.programPoint(fmt.Sprintf("overheads/fetch-%s-%d", tag, n), bench.MachineSpec{},
			func(m *core.Machine) (kernels.Result, error) {
				rt := cfrt.New(m, cfrt.Config{UseCedarSync: sync, MaxCEs: 1},
					cfrt.XDoall{N: n, Body: emptyBody})
				res, err := rt.Run(100_000_000)
				return kernels.Result{Result: res}, err
			})
	}
	return []point{
		env.programPoint("overheads/startup", bench.MachineSpec{}, timeToFirstIteration),
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

func emptyBody(_ int, q []ce.Instr) []ce.Instr {
	return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1})
}

// timeToFirstIteration measures XDOALL startup: the delay before any CE
// executes the first iteration of a freshly started machine-wide loop.
func timeToFirstIteration(m *core.Machine) (kernels.Result, error) {
	first := int64(-1)
	body := func(_ int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1, OnDone: func(cy int64) {
			if first < 0 {
				first = cy
			}
		}})
	}
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true}, cfrt.XDoall{N: 64, Body: body})
	_, err := rt.Run(100_000_000)
	return kernels.Result{Result: core.Result{Cycles: first, Seconds: params.CyclesToSeconds(first)}}, err
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

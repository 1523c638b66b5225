package tables

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
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
// independent; they dispatch as pool jobs and the derived quantities are
// computed from the reassembled times.
func RunOverheads(env Env) (*OverheadsResult, error) {
	pm := env.Machine()
	const iters = 64
	// n == 0 is the XDOALL startup probe: cycles from loop entry until
	// the first iteration body executes (the paper's "typical loop
	// startup latency"). The others time the iteration fetch: the
	// marginal cost per iteration of an empty loop, measured on one CE to
	// avoid overlap (iterations - 1 extra fetches), with and without
	// Cedar synchronization.
	type point struct {
		scope string
		n     int
		sync  bool
	}
	points := []point{
		{"startup", 0, true},
		{fmt.Sprintf("fetch-lib-%d", iters), iters, false},
		{"fetch-lib-1", 1, false},
		{fmt.Sprintf("fetch-sync-%d", iters), iters, true},
		{"fetch-sync-1", 1, true},
	}
	t, err := sweep(env, points,
		func(pt point) build { return env.at("overheads/"+pt.scope, pm) },
		func(pt point, m *core.Machine) (float64, error) {
			if pt.n == 0 {
				return timeToFirstIteration(m)
			}
			return timeXDoallOneCE(m, pt.n, pt.sync)
		})
	if err != nil {
		return nil, err
	}
	return &OverheadsResult{
		XDoallStartupUS:  t[0] * 1e6,
		FetchNoSyncUS:    (t[1] - t[2]) / float64(iters-1) * 1e6,
		FetchCedarSyncUS: (t[3] - t[4]) / float64(iters-1) * 1e6,
		// CDOALL start: booked cost of the concurrent-start broadcast.
		CDoallStartUS: float64(pm.CDoallStart) * params.CycleNS / 1e3,
	}, nil
}

func emptyBody(_ int, q []ce.Instr) []ce.Instr {
	return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1})
}

// timeToFirstIteration measures XDOALL startup: the delay before any CE
// executes the first iteration of a freshly started machine-wide loop.
func timeToFirstIteration(m *core.Machine) (float64, error) {
	first := int64(-1)
	body := func(_ int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1, OnDone: func(cy int64) {
			if first < 0 {
				first = cy
			}
		}})
	}
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: true}, cfrt.XDoall{N: 64, Body: body})
	if _, err := rt.Run(100_000_000); err != nil {
		return 0, err
	}
	return params.CyclesToSeconds(first), nil
}

func timeXDoallOneCE(m *core.Machine, n int, sync bool) (float64, error) {
	rt := cfrt.New(m, cfrt.Config{UseCedarSync: sync, MaxCEs: 1},
		cfrt.XDoall{N: n, Body: emptyBody})
	res, err := rt.Run(100_000_000)
	return res.Seconds, err
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

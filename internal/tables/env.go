package tables

import (
	"fmt"
	"io"

	"cedar/internal/bench"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/kernels"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// Env is the run configuration every experiment point executes under. It
// is a plain value passed down from whoever owns the run (a CLI session,
// a test, a library caller): two Envs in one process never see each
// other, which is what lets a daemon or a test run a faulted and a
// healthy sweep side by side. The zero Env is an unobserved healthy run
// on the as-built Cedar's event-wheel engine at GOMAXPROCS workers.
type Env struct {
	// Hub, when non-nil, observes every machine the run builds, each
	// under its own namespace.
	Hub *scope.Hub
	// Faults is the plan every machine runs under; nil is healthy.
	Faults *fault.Plan
	// Jobs is the fleet worker count; 0 means GOMAXPROCS. Output is
	// byte-identical at any value.
	Jobs int
	// Clusters is the base machine's width: 0 keeps the as-built
	// 4-cluster Cedar, anything else selects params.Scaled(Clusters).
	Clusters int
	// Stepped builds every machine as the pure per-cycle reference
	// (core.Options.Stepped) — the equivalence gates' other side. Output
	// is byte-identical either way.
	Stepped bool
	// Progress, when non-nil, receives one line per simulated point, in
	// point order as each sweep finishes.
	Progress io.Writer
}

// Machine returns the base machine experiments start from before applying
// their own overrides (cluster count, queue depth, ...).
func (e Env) Machine() params.Machine {
	if e.Clusters > 0 {
		return params.Scaled(e.Clusters)
	}
	return params.Default()
}

// point is one sweep point: a bench.Point — what every campaign cell and
// cedarserve request also is — and the hub namespace it reports under.
type point struct {
	// scope is the point's hub namespace ("t1/pref/2cl").
	scope string
	bench.Point
	// program, when non-nil, runs on the point's machine in place of
	// Workload: the sweeps (overheads, prefblock, sched, the Perfect
	// suite) whose programs no workload kind names yet.
	program func(*core.Machine) (kernels.Result, error)
}

// point is the usual sweep point: w under the Env's plan on ms, which
// starts from the Env's base machine unless it names its own.
func (e Env) point(scope string, ms bench.MachineSpec, w bench.WorkloadSpec) point {
	if ms.Scaled == 0 {
		ms.Scaled = e.Clusters
	}
	return point{scope: scope, Point: bench.Point{Machine: ms, Workload: w, Plan: e.Faults}}
}

// programPoint is a point that carries its program instead of a workload.
func (e Env) programPoint(scope string, ms bench.MachineSpec, program func(*core.Machine) (kernels.Result, error)) point {
	pt := e.point(scope, ms, bench.WorkloadSpec{})
	pt.program = program
	return pt
}

// run is bench.Point.Run, or for a program point the same Build and then
// the program.
func (pt point) run(hub *scope.Hub, stepped bool) (bench.PointOutcome, error) {
	if pt.program == nil {
		return pt.Run(hub, stepped)
	}
	m, err := pt.Build(hub, stepped)
	if err != nil {
		return bench.PointOutcome{}, err
	}
	res, err := pt.program(m)
	return bench.PointOutcome{Result: res, Status: "ok"}, err
}

// sweep runs one whole-machine simulation per point — every point, every
// time — and returns the outcomes in point order. It is the only place a
// table runs a machine, each in its own namespace of the Env's hub and on
// the Env's engine, and the one place progress lines are written. A point
// that degrades under its plan fails the sweep unless degradedOK; errors
// carry the point's scope name.
func sweep(env Env, points []point, degradedOK bool) ([]bench.PointOutcome, error) {
	jobs := make([]fleet.Job[bench.PointOutcome], len(points))
	for i, pt := range points {
		jobs[i].Run = func(h *scope.Hub) (bench.PointOutcome, error) {
			out, err := pt.run(h.Sub(pt.scope), env.Stepped)
			if err == nil && !degradedOK {
				err = out.Err
			}
			if err != nil {
				err = fmt.Errorf("tables: %s: %w", pt.scope, err)
			}
			return out, err
		}
	}
	outs, err := fleet.Run(fleet.Config{Jobs: env.Jobs, Hub: env.Hub}, jobs)
	if err == nil && env.Progress != nil {
		for i, out := range outs {
			fmt.Fprintf(env.Progress, "  %-36s %12d cycles %9.2f MFLOPS\n", points[i].scope, out.Cycles, out.MFLOPS)
		}
	}
	return outs, err
}

package tables

import (
	"errors"
	"fmt"

	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
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

	// audit, when non-nil, collects each sweep's builds in place of
	// running them; tests use it to check what a point runs under.
	audit *[]build
}

// errAudited ends a sweep whose builds went to Env.audit.
var errAudited = errors.New("tables: sweep audited, not run")

// Machine returns the base machine experiments start from before applying
// their own overrides (cluster count, queue depth, ...).
func (e Env) Machine() params.Machine {
	if e.Clusters > 0 {
		return params.Scaled(e.Clusters)
	}
	return params.Default()
}

func (e Env) fleet() fleet.Config { return fleet.Config{Jobs: e.Jobs, Hub: e.Hub} }

// build describes the machine one sweep point runs on.
type build struct {
	// scope is the point's hub namespace ("t1/pref/2cl").
	scope string
	pm    params.Machine
	// opt carries the fabric, fault-plan and engine choices; sweep fills
	// in Scope. Env.at presets Faults and Stepped from the Env.
	opt core.Options
}

// at is the usual build: pm under the Env's fault plan and engine.
func (e Env) at(scope string, pm params.Machine) build {
	return build{scope: scope, pm: pm, opt: core.Options{Faults: e.Faults, Stepped: e.Stepped}}
}

// sweep runs one whole-machine simulation per point — every point, every
// time — and returns the results in point order. It is the only place a
// table builds a machine, so no experiment can forget the Env's plan or
// engine. Errors carry the point's scope name.
func sweep[P, T any](env Env, points []P, at func(P) build, body func(P, *core.Machine) (T, error)) ([]T, error) {
	jobs := make([]fleet.Job[T], len(points))
	for i, pt := range points {
		b := at(pt)
		if env.audit != nil {
			*env.audit = append(*env.audit, b)
			continue
		}
		jobs[i] = fleet.Job[T]{
			Run: func(h *scope.Hub) (out T, err error) {
				opt := b.opt
				opt.Scope = h.Sub(b.scope)
				m, err := core.New(b.pm, opt)
				if err == nil {
					out, err = body(pt, m)
				}
				if err != nil {
					err = fmt.Errorf("tables: %s: %w", b.scope, err)
				}
				return out, err
			},
		}
	}
	if env.audit != nil {
		return nil, errAudited
	}
	return fleet.Run(env.fleet(), jobs)
}

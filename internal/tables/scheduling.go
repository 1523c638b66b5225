package tables

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/params"
)

// SchedulingRow is one (policy, sync, workload) measurement of the loop
// scheduling ablation: design choice 3 of DESIGN.md, extending §3.2's
// overhead discussion with the guided self-scheduling policy that came
// out of the Cedar compiler work.
type SchedulingRow struct {
	Policy    string
	CedarSync bool
	Workload  string
	Cycles    int64
}

// Scheduling is the loop scheduling ablation, one row per measurement.
type Scheduling []SchedulingRow

// RunSchedulingAblation times a balanced and an imbalanced 512-iteration
// loop under static, self- and guided scheduling, with and without the
// Cedar synchronization instructions.
func RunSchedulingAblation(env Env) (Scheduling, error) {
	balanced := func(i int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 60, Flops: 20})
	}
	imbalanced := func(i int, q []ce.Instr) []ce.Instr {
		cost := int64(15)
		if i >= 480 {
			cost = 2500
		}
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cost, Flops: 20})
	}
	policies := []struct {
		name  string
		sched cfrt.Schedule
	}{
		{"static", cfrt.StaticSchedule},
		{"self", cfrt.SelfSchedule},
		{"guided", cfrt.GuidedSchedule},
	}
	type point struct {
		wlName  string
		body    cfrt.BodyFn
		polName string
		sched   cfrt.Schedule
		sync    bool
	}
	var points []point
	for _, wl := range []struct {
		name string
		body cfrt.BodyFn
	}{{"balanced", balanced}, {"imbalanced", imbalanced}} {
		for _, pol := range policies {
			for _, sync := range []bool{true, false} {
				if pol.sched == cfrt.StaticSchedule && !sync {
					continue // static never claims; sync is irrelevant
				}
				points = append(points, point{
					wlName: wl.name, body: wl.body,
					polName: pol.name, sched: pol.sched, sync: sync,
				})
			}
		}
	}
	return sweep(env, points,
		func(pt point) build {
			return env.at(fmt.Sprintf("sched/%s/%s/sync=%v", pt.wlName, pt.polName, pt.sync), env.Machine())
		},
		func(pt point, m *core.Machine) (SchedulingRow, error) {
			rt := cfrt.New(m, cfrt.Config{UseCedarSync: pt.sync},
				cfrt.XDoall{N: 512, Sched: pt.sched, Body: pt.body})
			res, err := rt.Run(1 << 40)
			return SchedulingRow{
				Policy: pt.polName, CedarSync: pt.sync,
				Workload: pt.wlName, Cycles: res.Cycles,
			}, err
		})
}

// Format renders the ablation.
func (rows Scheduling) Format() string {
	header := []string{"workload", "policy", "Cedar sync", "cycles", "µs"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, r.Policy, fmt.Sprintf("%v", r.CedarSync),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.0f", float64(r.Cycles)*params.CycleNS/1e3),
		})
	}
	s := "loop scheduling ablation (512 iterations, 32 CEs)\n"
	s += formatTable(header, out)
	s += "static wins on balanced work; guided recovers balance at a fraction of self-scheduling's claim traffic\n"
	return s
}

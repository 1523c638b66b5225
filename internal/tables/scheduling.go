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
	return runAs[Scheduling](env, "sched", Sizes{})
}

// schedRows are the ablation's measurements, less their cycle counts.
func schedRows() []SchedulingRow {
	var rows []SchedulingRow
	for _, wl := range []string{"balanced", "imbalanced"} {
		for _, pol := range []string{"static", "self", "guided"} {
			for _, sync := range []bool{true, false} {
				if pol == "static" && !sync {
					continue // static never claims; sync is irrelevant
				}
				rows = append(rows, SchedulingRow{Policy: pol, CedarSync: sync, Workload: wl})
			}
		}
	}
	return rows
}

func schedPoints(env Env, _ Sizes) []point {
	bodies := map[string]cfrt.BodyFn{
		"balanced": func(i int, q []ce.Instr) []ce.Instr {
			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 60, Flops: 20})
		},
		"imbalanced": func(i int, q []ce.Instr) []ce.Instr {
			cost := int64(15)
			if i >= 480 {
				cost = 2500
			}
			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cost, Flops: 20})
		},
	}
	policies := map[string]cfrt.Schedule{
		"static": cfrt.StaticSchedule, "self": cfrt.SelfSchedule, "guided": cfrt.GuidedSchedule,
	}
	var pts []point
	for _, row := range schedRows() {
		sched, body := policies[row.Policy], bodies[row.Workload]
		pts = append(pts, env.programPoint(fmt.Sprintf("sched/%s/%s/sync=%v", row.Workload, row.Policy, row.CedarSync),
			bench.MachineSpec{}, func(m *core.Machine) (kernels.Result, error) {
				rt := cfrt.New(m, cfrt.Config{UseCedarSync: row.CedarSync},
					cfrt.XDoall{N: 512, Sched: sched, Body: body})
				res, err := rt.Run(1 << 40)
				return kernels.Result{Result: res}, err
			}))
	}
	return pts
}

func schedTable(_ Sizes, _ []point, outs []bench.PointOutcome) Result {
	rows := Scheduling(schedRows())
	for i := range rows {
		rows[i].Cycles = outs[i].Cycles
	}
	return rows
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

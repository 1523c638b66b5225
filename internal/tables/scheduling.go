package tables

import (
	"fmt"
	"slices"

	"cedar/internal/bench"
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
	var pts []point
	for _, row := range schedRows() {
		pts = append(pts, env.point("sched/"+row.key(), bench.MachineSpec{},
			bench.WorkloadSpec{Kind: "xdoall", N: 512, Variant: row.Workload, Sched: row.Policy, NoSync: !row.CedarSync}))
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

// schedClaims: static wins balanced work, self and guided absorb an
// imbalanced tail, and lock-based claims cost 10× the Cedar sync path.
var schedClaims = []claim{
	{id: "balanced: static < guided < self", kind: ordering,
		value: schedCycles("balanced/static/sync=true", "balanced/guided/sync=true", "balanced/self/sync=true")},
	{id: "imbalanced: guided < static", kind: ordering,
		value: schedCycles("imbalanced/guided/sync=true", "imbalanced/static/sync=true")},
	{id: "imbalanced: self < static", kind: ordering,
		value: schedCycles("imbalanced/self/sync=true", "imbalanced/static/sync=true")},
	{id: "balanced self: library path over Cedar sync", kind: floor, paper: 10,
		value: func(r Result) []float64 {
			c := schedCycles("balanced/self/sync=false", "balanced/self/sync=true")(r)
			return []float64{c[0] / c[1]}
		}},
}

// key names a row as its point's scope does: workload/policy/sync=….
func (r SchedulingRow) key() string {
	return fmt.Sprintf("%s/%s/sync=%v", r.Workload, r.Policy, r.CedarSync)
}

// schedCycles reads the cycles of the rows with the given keys, in order.
func schedCycles(keys ...string) func(Result) []float64 {
	return of(func(s Scheduling) []float64 {
		return collect(keys, func(k string) float64 {
			return float64(s[slices.IndexFunc(s, func(r SchedulingRow) bool { return r.key() == k })].Cycles)
		})
	})
}

package tables

import (
	"fmt"

	"cedar/internal/bench"
	"cedar/internal/fault"
)

// DegradedRow is one fault scenario's result on the 32-CE prefetched
// rank-n update.
type DegradedRow struct {
	Scenario string
	MFLOPS   float64
	Cycles   int64
	Slowdown float64 // cycles relative to the healthy row
	Injected int64   // faults fired (stalls + jams + drops + NACKs)
	Retries  int64   // PFU element reissues
	DeadMods int     // memory modules remapped around
	Status   string  // "ok" or the degradation error
}

// degradedSeed keys the built-in scenarios' probability draws.
const degradedSeed = 0xCEDA2

// Degraded is the degraded-mode table, one row per fault scenario. It
// measures graceful degradation: the prefetched rank-n update under a
// healthy machine and under each fault class — a dead memory bank
// (interleave remaps around it), a jammed first network stage, transient
// module NACKs, and lossy links — plus the Env's own plan when it has
// one. Every scenario names its plan itself, so the healthy row stays
// healthy under a faulted Env. Failures surface as a row status, never
// as a crashed table: that is the point of the exercise.
type Degraded []DegradedRow

// degradedScenarios are the built-in rows: display name, scope-namespace
// token (no spaces) and the plan the row runs under.
var degradedScenarios = []struct {
	name, scope string
	plan        *fault.Plan
}{
	{"healthy (no faults)", "healthy", nil},
	{"dead bank (module 3 remapped)", "deadbank", &fault.Plan{Seed: degradedSeed, Faults: []fault.Fault{
		{Kind: fault.BankDead, Module: 3},
	}}},
	{"stage jam (fwd stage 0, 5%)", "stagejam", &fault.Plan{Seed: degradedSeed, Faults: []fault.Fault{
		{Kind: fault.StageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
	}}},
	{"pfu nacks (all modules, 2%)", "pfunack", &fault.Plan{Seed: degradedSeed, Faults: []fault.Fault{
		{Kind: fault.PFUNack, Module: -1, Rate: 0.02},
	}}},
	{"link drops (both nets, 0.5%)", "linkdrop", &fault.Plan{Seed: degradedSeed, Faults: []fault.Fault{
		{Kind: fault.LinkDrop, Stage: -1, Line: -1, Rate: 0.005},
	}}},
	{"combined (dead bank + jam + nacks)", "combined", fault.DemoPlan()},
}

func degradedPoints(env Env, s Sizes) []point {
	var pts []point
	for _, sc := range degradedScenarios {
		pt := env.point("degraded/"+sc.scope, bench.MachineSpec{}, rankPref(s.RankN))
		pt.Plan = sc.plan
		pts = append(pts, pt)
	}
	if env.Faults != nil {
		pts = append(pts, env.point("degraded/configured", bench.MachineSpec{}, rankPref(s.RankN)))
	}
	return pts
}

func degradedTable(_ Sizes, _ []point, outs []bench.PointOutcome) Result {
	var rows Degraded
	for i, out := range outs {
		row := DegradedRow{
			Scenario: "as configured (-faults plan)", // the row after the built-in ones
			MFLOPS:   out.MFLOPS, Cycles: out.Cycles, Status: out.Status,
			Injected: out.Faults.Injected, Retries: out.Faults.Retries, DeadMods: out.Faults.DeadMods,
		}
		if i < len(degradedScenarios) {
			row.Scenario = degradedScenarios[i].name
		}
		if outs[0].Cycles > 0 {
			row.Slowdown = float64(out.Cycles) / float64(outs[0].Cycles)
		}
		rows = append(rows, row)
	}
	return rows
}

// Format renders the degraded-mode table.
func (rows Degraded) Format() string {
	header := []string{"scenario", "MFLOPS", "cycles", "slowdown", "injected", "retries", "dead", "status"}
	var out [][]string
	for _, r := range rows {
		mflops := "-"
		if r.Status == "ok" {
			mflops = fmt.Sprintf("%.1f", r.MFLOPS)
		}
		out = append(out, []string{
			r.Scenario,
			mflops,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.Slowdown),
			fmt.Sprintf("%d", r.Injected),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.DeadMods),
			r.Status,
		})
	}
	s := formatTable(header, out)
	s += "fault model: deterministic injection (seed-keyed counter PRNG); dead banks remap the interleave,\n" +
		"NACKed/lost prefetch reads retry with exponential backoff, exhaustion degrades the run instead of crashing it\n"
	return s
}

package tables

import (
	"errors"
	"fmt"

	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/kernels"
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

// Degraded is the degraded-mode table, one row per fault scenario.
type Degraded []DegradedRow

// RunDegraded measures graceful degradation: the prefetched rank-n
// update under a healthy machine and under each fault class — a dead
// memory bank (interleave remaps around it), a jammed first network
// stage, transient module NACKs, and lossy links — plus the Env's own
// plan when it has one. Every scenario names its plan itself, so the
// healthy row stays healthy under a faulted Env. Failures surface as a
// row status, never as a crashed table: that is the point of the
// exercise.
func RunDegraded(env Env, n int) (Degraded, error) {
	type scenario struct {
		name  string
		scope string // scope-namespace token (no spaces)
		plan  *fault.Plan
	}
	scenarios := []scenario{
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
	if env.Faults != nil {
		scenarios = append(scenarios, scenario{"as configured (-faults plan)", "configured", env.Faults})
	}

	rows, err := sweep(env, scenarios,
		func(sc scenario) build {
			b := env.at("degraded/"+sc.scope, env.Machine())
			b.opt.Faults = sc.plan
			return b
		},
		func(sc scenario, m *core.Machine) (DegradedRow, error) {
			row := DegradedRow{Status: "ok"}
			out, err := kernels.RankUpdate(m, n, kernels.RKPref)
			switch {
			case err == nil:
				row.MFLOPS = out.MFLOPS
				row.Cycles = out.Cycles
			case errors.Is(err, fault.ErrDegraded):
				// The run was abandoned; report what the machine
				// measured before giving up.
				row.Status = "degraded"
				row.Cycles = m.Engine.Cycle()
			default:
				return DegradedRow{}, err
			}
			fc := m.FaultCounters()
			row.Injected = fc.Injected
			row.Retries = fc.Retries
			row.DeadMods = fc.DeadMods
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Scenario = scenarios[i].name
		if rows[0].Cycles > 0 {
			rows[i].Slowdown = float64(rows[i].Cycles) / float64(rows[0].Cycles)
		}
	}
	return rows, nil
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

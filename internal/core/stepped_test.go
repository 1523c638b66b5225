package core_test

import (
	"testing"

	"cedar/internal/core"
	"cedar/internal/kernels"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// TestSteppedMachineMatchesEventMachine: Options.Stepped is a
// registration choice, not an engine mode. On the latency probe — one
// dependent load per round trip with a 100-cycle pause, the wheel's best
// case — the stepped machine executes every cycle and the event machine
// jumps most of them, and both report the same result. Every component
// of the stepped machine is registered plain: all of them count as awake
// on an idle machine.
func TestSteppedMachineMatchesEventMachine(t *testing.T) {
	run := func(stepped bool) (*core.Machine, kernels.Result) {
		t.Helper()
		m, err := core.New(params.Default(), core.Options{Scope: scope.NewHub(), Stepped: stepped})
		if err != nil {
			t.Fatal(err)
		}
		res, err := kernels.LoadLatency(m, 200, 100)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	sm, sres := run(true)
	em, eres := run(false)
	if sres.Result != eres.Result || sres.Cycles == 0 {
		t.Errorf("stepped machine measured %+v, event machine %+v", sres.Result, eres.Result)
	}
	if n := sm.Engine.FastForwarded(); n != 0 {
		t.Errorf("stepped machine jumped %d cycles", n)
	}
	if em.Engine.FastForwarded() == 0 {
		t.Error("event machine jumped no cycle of a 100-cycle-gap latency probe")
	}
	if awake, all := len(sm.Engine.AwakeComponents()), sm.Engine.Components(); awake != all {
		t.Errorf("%d of the stepped machine's %d components are awake when idle; some were registered as Sleepers", awake, all)
	}
	if awake, all := len(em.Engine.AwakeComponents()), em.Engine.Components(); awake == all {
		t.Error("every component of the idle event machine is awake; the probe cannot tell the machines apart")
	}
}

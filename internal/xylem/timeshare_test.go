package xylem

import (
	"testing"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/params"
)

func TestTimeSharerRunsBothTasksToCompletion(t *testing.T) {
	p := params.Default()
	m := core.MustNew(p, core.Options{})
	a := NewFixedWork(40, 100)
	b := NewFixedWork(40, 100)
	ts := NewTimeSharer(p, DefaultTasks(), 2000, a, b)
	res, err := m.Run(ts, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Both tasks' flops: 2 tasks × 32 CEs × 40 instrs.
	if want := int64(2 * 32 * 40); res.Flops != want {
		t.Errorf("flops %d, want %d", res.Flops, want)
	}
	if ts.Switches() == 0 {
		t.Error("no rotations happened")
	}
	if ts.DoneAt(0) == 0 || ts.DoneAt(1) == 0 {
		t.Error("completion times not recorded")
	}
	// Time-sharing two equal tasks costs at least the sum of their work.
	soloCycles := int64(40 * 100)
	if res.Cycles < 2*soloCycles {
		t.Errorf("shared run %d cycles, cannot beat 2× solo %d", res.Cycles, soloCycles)
	}
}

func TestTimeSharerSingleTaskNoOverhead(t *testing.T) {
	p := params.Default()
	m := core.MustNew(p, core.Options{})
	ts := NewTimeSharer(p, DefaultTasks(), 2000, NewFixedWork(20, 50))
	res, err := m.Run(ts, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Switches() != 0 {
		t.Errorf("%d rotations with one task", ts.Switches())
	}
	if res.Cycles > 20*50+200 {
		t.Errorf("single task took %d cycles, want ≈1000", res.Cycles)
	}
}

// TestMultiprogrammingPerturbsBarrierCode demonstrates why the paper ran
// single-user: a barrier-synchronized program co-scheduled with plain
// compute work slows down by far more than the 2× its machine share
// predicts, because its barriers spin while gang partners run the other
// task.
func TestMultiprogrammingPerturbsBarrierCode(t *testing.T) {
	p := params.Default()
	body := func(i int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 50, Flops: 10})
	}
	barrierPhases := func() []cfrt.Phase {
		var phs []cfrt.Phase
		for k := 0; k < 6; k++ {
			phs = append(phs, cfrt.XDoall{N: 64, Body: body})
		}
		return phs
	}

	// Solo run.
	mSolo := core.MustNew(p, core.Options{})
	rtSolo := cfrt.New(mSolo, cfrt.Config{UseCedarSync: true}, barrierPhases()...)
	solo, err := rtSolo.Run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}

	// Co-scheduled with a compute-only task.
	mShared := core.MustNew(p, core.Options{})
	rtShared := cfrt.New(mShared, cfrt.Config{UseCedarSync: true}, barrierPhases()...)
	bg := NewFixedWork(400, 200)
	ts := NewTimeSharer(p, DefaultTasks(), 3000, rtShared, bg)
	if _, err := mShared.Run(ts, 1<<40); err != nil {
		t.Fatal(err)
	}
	sharedDone := ts.DoneAt(0)
	if sharedDone == 0 {
		t.Fatal("barrier task never finished")
	}
	slowdown := float64(sharedDone) / float64(solo.Cycles)
	if slowdown < 2.2 {
		t.Errorf("barrier code slowdown %.1f× under multiprogramming; expected well beyond its 2× share", slowdown)
	}
}

func TestTimeSharerQuantumClamp(t *testing.T) {
	ts := NewTimeSharer(params.Default(), DefaultTasks(), 0, NewFixedWork(1, 1))
	if ts.quantum != 1 {
		t.Errorf("quantum %d, want clamp to 1", ts.quantum)
	}
}

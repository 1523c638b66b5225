package ce

import (
	"testing"

	"cedar/internal/network"
)

func TestClusterScalarLoadStore(t *testing.T) {
	r := newRig(t, 1)
	var got int64 = -1
	r.ces[0].SetController(prog(
		&Instr{Op: OpClusterStore, Addr: 40, Value: 55},
		&Instr{Op: OpClusterLoad, Addr: 40, Done: func(_ int, v int64, _ bool, cy int64) {
			got = r.cm.Store().Load(40)
		}},
	))
	r.run(t, 10000)
	if got != 55 {
		t.Fatalf("cluster load observed %d, want 55", got)
	}
}

func TestClusterLoadPaysCachePath(t *testing.T) {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(&Instr{Op: OpClusterLoad, Addr: 0}))
	r.run(t, 10000)
	// Cold access: cache miss + cluster memory latency; far less than a
	// global load but not free.
	if cy := r.eng.Cycle(); cy < 5 || cy > 60 {
		t.Errorf("cold cluster load took %d cycles", cy)
	}
}

func TestVectorTwoSourceStreams(t *testing.T) {
	// A two-operand vector op (wpf = 1): both streams must arrive, and
	// only one may use the PFU. Throughput is bounded by the unprefetched
	// stream's two-outstanding limit.
	r := newRig(t, 1)
	r.ces[0].SetController(prog(&Instr{
		Op: OpVector, N: 64, Flops: 2,
		Srcs: []Stream{
			{Space: SpaceGlobal, Base: 0, Stride: 1, PrefBlock: 64},
			{Space: SpaceGlobal, Base: 4096, Stride: 1},
		},
	}))
	r.run(t, 100000)
	rate := float64(r.ces[0].Flops()) / float64(r.eng.Cycle())
	// ≈2 flops per 6.5 cycles (the plain stream's 2/13 word rate).
	if rate > 0.5 {
		t.Errorf("two-stream rate %.3f flops/cycle; unprefetched stream should bound it", rate)
	}
	if rate < 0.15 {
		t.Errorf("two-stream rate %.3f flops/cycle implausibly low", rate)
	}
}

func TestVectorClusterDestination(t *testing.T) {
	// Global→cluster block move: the GM/cache copy phase's instruction.
	r := newRig(t, 1)
	r.ces[0].SetController(prog(&Instr{
		Op: OpVector, N: 128, Flops: 0,
		Srcs: []Stream{{Space: SpaceGlobal, Base: 0, Stride: 1, PrefBlock: 128}},
		Dst:  &Stream{Space: SpaceCluster, Base: 0, Stride: 1},
	}))
	r.run(t, 100000)
	st := r.cch.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("cluster store stream never touched the cache")
	}
}

func TestFenceWaitsForAllStores(t *testing.T) {
	r := newRig(t, 1)
	var fenceAt, lastStore int64
	instrs := []*Instr{}
	for i := 0; i < 16; i++ {
		instrs = append(instrs, &Instr{Op: OpGlobalStore, Addr: uint64(i * 7),
			Done: func(_ int, _ int64, _ bool, cy int64) { lastStore = cy }})
	}
	instrs = append(instrs, &Instr{Op: OpFence, Done: func(_ int, _ int64, _ bool, cy int64) { fenceAt = cy }})
	r.ces[0].SetController(prog(instrs...))
	r.run(t, 100000)
	if fenceAt <= lastStore {
		t.Errorf("fence completed at %d, before the last store issue at %d finished acking",
			fenceAt, lastStore)
	}
	// Every store must be visible in memory.
	for i := 0; i < 16; i++ {
		// Timing-only values (zero) — presence is what the ack proves;
		// storesOutstanding reaching zero is checked by Idle already.
		_ = i
	}
}

func TestWaitAndActiveCycleAccounting(t *testing.T) {
	r := newRig(t, 1)
	c := r.ces[0]
	c.SetController(prog(&Instr{Op: OpScalar, Cycles: 50}))
	r.run(t, 1000)
	if c.ActiveCycles() < 50 {
		t.Errorf("active cycles %d < 50", c.ActiveCycles())
	}
	if c.DoneAt() <= 0 {
		t.Errorf("DoneAt = %d", c.DoneAt())
	}
}

type waitThenRun struct {
	waitTicks int
	given     bool
}

func (w *waitThenRun) Next(ceID int, cycle int64, in *Instr) Status {
	if w.waitTicks > 0 {
		w.waitTicks--
		return Wait
	}
	if !w.given {
		w.given = true
		*in = Instr{Op: OpScalar, Cycles: 5}
		return Ready
	}
	return Finished
}

func TestControllerWaitCounted(t *testing.T) {
	r := newRig(t, 1)
	c := r.ces[0]
	c.SetController(&waitThenRun{waitTicks: 30})
	r.run(t, 1000)
	if c.WaitCycles() < 25 {
		t.Errorf("wait cycles %d, want ≈30", c.WaitCycles())
	}
}

func TestSyncTestFailureReported(t *testing.T) {
	r := newRig(t, 1)
	r.mem.Store().StoreWord(9, 5)
	var passed = true
	r.ces[0].SetController(prog(&Instr{
		Op: OpSync, Addr: 9, Test: network.TestEQ, TestArg: 0,
		Mut: network.OpWrite, Value: 1,
		Done: func(_ int, _ int64, p bool, _ int64) { passed = p },
	}))
	r.run(t, 1000)
	if passed {
		t.Error("TAS on a held lock should fail")
	}
	if v := r.mem.Store().Load(9); v != 5 {
		t.Errorf("failed TAS mutated the location to %d", v)
	}
}

func TestVectorRegisterOnlyNoTraffic(t *testing.T) {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(&Instr{Op: OpVector, N: 64, Flops: 2}))
	r.run(t, 10000)
	if got := r.mem.Stats().Reads; got != 0 {
		t.Errorf("register-register vector issued %d memory reads", got)
	}
}

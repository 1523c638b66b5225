package ce

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"cedar/internal/cache"
	"cedar/internal/cmem"
	"cedar/internal/gmem"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// rig assembles one cluster's worth of CEs with real fabrics, global
// memory, cache and cluster memory.
type rig struct {
	p   params.Machine
	eng *sim.Engine
	ces []*CE
	mem *gmem.Memory
	cch *cache.Cache
	cm  *cmem.Memory
}

func newRig(t *testing.T, nCE int) *rig {
	t.Helper()
	p := params.Default()
	fwd := network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	rev := network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	mem := gmem.New(p, fwd, rev, nil)
	cm := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
	cch := cache.New(p, p.CEsPerCluster, cm)
	r := &rig{p: p, eng: sim.New(), mem: mem, cch: cch, cm: cm}
	ces, sh := make([]CE, nCE), new(Shared)
	for i := range ces {
		c := &ces[i]
		*c = New(p, i, 0, i%p.CEsPerCluster, i, fwd, rev, cch, mem.ModuleFor, sh)
		r.ces = append(r.ces, c)
		r.eng.Register(c)
	}
	r.eng.Register(
		sim.Func{ID: "cache", F: func(cy int64) { cch.Tick(cy); cm.Tick(cy) }},
		fwd, mem, rev,
	)
	return r
}

func (r *rig) run(t *testing.T, limit int64) {
	t.Helper()
	if err := r.eng.RunUntil(func() bool {
		for _, c := range r.ces {
			if !c.Idle() {
				return false
			}
		}
		return r.cch.Idle() && r.cm.Idle()
	}, limit); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func prog(instrs ...*Instr) *Program { return &Program{Instrs: instrs} }

// TestInstrLayout pins Instr at 96 bytes on 64-bit hosts: its three
// one-byte fields (Op, Test, Mut) share a word. Every cfrt queue, the
// queue slab and each CE's register hold Instrs by value, so a field
// order that pads each byte to a word of its own (104 bytes) costs them
// all.
func TestInstrLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Instr{}) != 96 {
		t.Errorf("Instr is %d bytes, want 96: Op, Test and Mut share a word", unsafe.Sizeof(Instr{}))
	}
}

// TestCELayout pins CE at 944 bytes on 64-bit hosts. A machine holds its
// CEs in one slab, so every byte a CE grows costs Cedar64 512; what the
// CEs of a machine share lives in Shared, reached through one pointer.
func TestCELayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(CE{}) > 944 {
		t.Errorf("CE is %d bytes, want at most 944", unsafe.Sizeof(CE{}))
	}
}

func TestScalarTiming(t *testing.T) {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(&Instr{Op: OpScalar, Cycles: 100, Flops: 50}))
	r.run(t, 1000)
	if got := r.ces[0].Flops(); got != 50 {
		t.Errorf("flops = %d, want 50", got)
	}
	if cy := r.eng.Cycle(); cy < 100 || cy > 105 {
		t.Errorf("scalar instr took %d cycles, want ≈100", cy)
	}
}

func TestGlobalLoadThirteenCycles(t *testing.T) {
	r := newRig(t, 1)
	var doneAt int64 = -1
	r.mem.Store().StoreWord(500, 31)
	var got int64
	r.ces[0].SetController(prog(&Instr{
		Op: OpGlobalLoad, Addr: 500,
		Done: func(_ int, v int64, _ bool, cy int64) { got = v; doneAt = cy },
	}))
	r.run(t, 1000)
	if got != 31 {
		t.Errorf("loaded %d, want 31", got)
	}
	// Issue happens during cycle 0; the full load latency is 13 cycles.
	if doneAt != 13 {
		t.Errorf("load completed at cycle %d, want 13", doneAt)
	}
}

func TestSyncRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	r.mem.Store().StoreWord(64, 5)
	var got int64
	var passed bool
	r.ces[0].SetController(prog(&Instr{
		Op: OpSync, Addr: 64, Test: network.TestGT, TestArg: 0,
		Mut: network.OpSub, Value: 1,
		Done: func(_ int, v int64, p bool, _ int64) { got = v; passed = p },
	}))
	r.run(t, 1000)
	if got != 5 || !passed {
		t.Errorf("sync returned %d/%v, want 5/true", got, passed)
	}
	if v := r.mem.Store().Load(64); v != 4 {
		t.Errorf("location = %d, want 4", v)
	}
}

func TestStoreAndFence(t *testing.T) {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(
		&Instr{Op: OpGlobalStore, Addr: 123, Value: 9},
		&Instr{Op: OpFence},
	))
	r.run(t, 1000)
	if v := r.mem.Store().Load(123); v != 9 {
		t.Errorf("stored %d, want 9", v)
	}
}

// vecRate runs a single-CE vector op and returns achieved flops/cycle.
func vecRate(t *testing.T, in *Instr) float64 {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(in))
	r.run(t, 2_000_000)
	return float64(r.ces[0].Flops()) / float64(r.eng.Cycle())
}

func TestVectorRegisterOnlyNearPeak(t *testing.T) {
	// Pure register-register vector work: 2 flops/cycle minus startup.
	rate := vecRate(t, &Instr{Op: OpVector, N: 320, Flops: 2})
	// Effective peak with startup 12 per 32-strip: 2 * 32/44 = 1.45.
	if rate < 1.3 || rate > 1.6 {
		t.Errorf("register-vector rate %.3f flops/cycle, want ≈1.45", rate)
	}
}

func TestVectorGlobalNoPrefetchMatchesPaperAnchor(t *testing.T) {
	// GM/no-pref: 2 outstanding × 13-cycle latency ⇒ 0.154 words/cycle ⇒
	// with 2 chained flops/word ≈ 0.31 flops/cycle ≈ 1.81 MFLOPS —
	// the Table 1 anchor (14.5 MFLOPS on 8 CEs).
	rate := vecRate(t, &Instr{
		Op: OpVector, N: 256, Flops: 2,
		Srcs: []Stream{{Space: SpaceGlobal, Base: 0, Stride: 1}},
	})
	mflops := rate * params.CyclesPerSecond / 1e6
	if math.Abs(mflops-1.81) > 0.25 {
		t.Errorf("GM/no-pref = %.2f MFLOPS/CE, want ≈1.81", mflops)
	}
}

func TestVectorGlobalPrefetchStreams(t *testing.T) {
	// GM/pref with large blocks: consumption near 1 word/cycle ⇒ close
	// to 2 flops/cycle minus startup and block re-arm bubbles.
	rate := vecRate(t, &Instr{
		Op: OpVector, N: 512, Flops: 2,
		Srcs: []Stream{{Space: SpaceGlobal, Base: 0, Stride: 1, PrefBlock: 256}},
	})
	mflops := rate * params.CyclesPerSecond / 1e6
	if mflops < 6.0 {
		t.Errorf("GM/pref = %.2f MFLOPS/CE, want > 6 (prefetch must stream)", mflops)
	}
	// Paper: prefetch gains ≈3.5× over no-pref on one cluster.
	if gain := mflops / 1.81; gain < 3.0 || gain > 6.0 {
		t.Errorf("prefetch gain %.2f×, want ≈3.5×", gain)
	}
}

func TestVectorSmallPrefetchBlocksSlower(t *testing.T) {
	big := vecRate(t, &Instr{
		Op: OpVector, N: 512, Flops: 2,
		Srcs: []Stream{{Space: SpaceGlobal, Stride: 1, PrefBlock: 256}},
	})
	small := vecRate(t, &Instr{
		Op: OpVector, N: 512, Flops: 2,
		Srcs: []Stream{{Space: SpaceGlobal, Stride: 1, PrefBlock: 32}},
	})
	if small >= big {
		t.Errorf("32-word blocks (%.3f) not slower than 256-word blocks (%.3f)", small, big)
	}
	if small < big*0.5 {
		t.Errorf("32-word blocks (%.3f) implausibly slow vs %.3f", small, big)
	}
}

func TestVectorClusterCached(t *testing.T) {
	// Cluster-space stream: after the first touch the line is resident;
	// a second pass runs at cache speed.
	r := newRig(t, 1)
	stream := Stream{Space: SpaceCluster, Base: 0, Stride: 1}
	r.ces[0].SetController(prog(
		&Instr{Op: OpVector, N: 256, Flops: 0, Srcs: []Stream{stream}},
	))
	r.run(t, 1_000_000)
	warm := r.eng.Cycle()
	_ = warm
	r2 := newRig(t, 1)
	r2.ces[0].SetController(prog(
		&Instr{Op: OpVector, N: 256, Flops: 0, Srcs: []Stream{stream}},
		&Instr{Op: OpVector, N: 256, Flops: 2, Srcs: []Stream{stream}},
	))
	r2.run(t, 1_000_000)
	rate := float64(r2.ces[0].Flops()) / float64(r2.eng.Cycle())
	// Second pass runs at cache speed; the cold fill pass dilutes the
	// average over both passes.
	if rate < 0.4 {
		t.Errorf("cached cluster rate %.3f flops/cycle over both passes, want > 0.4", rate)
	}
}

func TestVectorGlobalStoreWritesValues(t *testing.T) {
	r := newRig(t, 1)
	r.ces[0].SetController(prog(
		&Instr{Op: OpVector, N: 64, Flops: 1,
			Dst: &Stream{Space: SpaceGlobal, Base: 9000, Stride: 1}},
		&Instr{Op: OpFence},
	))
	r.run(t, 100000)
	// Timing-only store data (zero), but the ack count must balance.
	if r.ces[0].storesOutstanding != 0 {
		t.Errorf("%d store acks missing", r.ces[0].storesOutstanding)
	}
}

func TestEightCEsShareMemorySystem(t *testing.T) {
	// 8 CEs each streaming prefetched loads: aggregate limited by the
	// network/memory, so per-CE rate dips below the solo rate.
	solo := vecRate(t, &Instr{
		Op: OpVector, N: 512, Flops: 2,
		Srcs: []Stream{{Space: SpaceGlobal, Stride: 1, PrefBlock: 256}},
	})
	r := newRig(t, 8)
	for i, c := range r.ces {
		base := uint64(i * 4096)
		c.SetController(prog(&Instr{
			Op: OpVector, N: 512, Flops: 2,
			Srcs: []Stream{{Space: SpaceGlobal, Base: base, Stride: 1, PrefBlock: 256}},
		}))
	}
	r.run(t, 2_000_000)
	var total int64
	for _, c := range r.ces {
		total += c.Flops()
	}
	per := float64(total) / float64(r.eng.Cycle()) / 8
	if per > solo {
		t.Errorf("per-CE rate %.3f with 8 CEs exceeds solo %.3f", per, solo)
	}
	if per < solo*0.3 {
		t.Errorf("per-CE rate %.3f collapsed vs solo %.3f", per, solo)
	}
}

func TestProgramControllerSequences(t *testing.T) {
	r := newRig(t, 2)
	order := make(map[int][]int)
	mk := func(ce, tag int) *Instr {
		return &Instr{Op: OpScalar, Cycles: 1, Done: func(int, int64, bool, int64) {
			order[ce] = append(order[ce], tag)
		}}
	}
	r.ces[0].SetController(prog(mk(0, 1), mk(0, 2), mk(0, 3)))
	r.ces[1].SetController(prog(mk(1, 10), mk(1, 20)))
	r.run(t, 1000)
	if len(order[0]) != 3 || order[0][0] != 1 || order[0][2] != 3 {
		t.Errorf("ce0 order = %v", order[0])
	}
	if len(order[1]) != 2 || order[1][1] != 20 {
		t.Errorf("ce1 order = %v", order[1])
	}
}

func TestVectorValidation(t *testing.T) {
	cases := []struct {
		name string
		in   *Instr
	}{
		{"zero N", &Instr{Op: OpVector, N: 0}},
		{"pref cluster", &Instr{Op: OpVector, N: 4, Srcs: []Stream{{Space: SpaceCluster, PrefBlock: 8}}}},
		{"two PFUs", &Instr{Op: OpVector, N: 4, Srcs: []Stream{
			{Space: SpaceGlobal, PrefBlock: 8}, {Space: SpaceGlobal, PrefBlock: 8}}}},
		{"huge unprefetched", &Instr{Op: OpVector, N: 1 << 17, Srcs: []Stream{{Space: SpaceGlobal}}}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			r := newRig(t, 1)
			r.ces[0].SetController(prog(tc.in))
			r.eng.Run(10)
		}()
	}
}

// TestGeneratorMatchesProgram runs the same two-CE instruction sequence
// stored (Program) and streamed (Generator): same retire order, same
// cycle, same flops — and each CE sees its own id in fill.
func TestGeneratorMatchesProgram(t *testing.T) {
	const n = 6
	// Instruction i: scalar work on even i, a dependent global load on odd.
	fill := func(ceID, i int, in *Instr) {
		if i%2 == 0 {
			in.Op, in.Cycles, in.Flops = OpScalar, int64(3+ceID+i), 2
		} else {
			in.Op, in.Addr = OpGlobalLoad, uint64(100*ceID+i)
		}
	}
	type outcome struct {
		cycle int64
		flops [2]int64
		done  [2][]int64
	}
	run := func(ctrl func(ceID int, done *[]int64) Controller) outcome {
		r := newRig(t, 2)
		var o outcome
		for id, c := range r.ces {
			c.SetController(ctrl(id, &o.done[id]))
		}
		r.run(t, 10000)
		o.cycle = r.eng.Cycle()
		for id, c := range r.ces {
			o.flops[id] = c.Flops()
		}
		return o
	}
	stored := run(func(ceID int, done *[]int64) Controller {
		p := &Program{}
		for i := 0; i < n; i++ {
			in := &Instr{Done: func(_ int, _ int64, _ bool, cy int64) { *done = append(*done, cy) }}
			fill(ceID, i, in)
			p.Instrs = append(p.Instrs, in)
		}
		return p
	})
	// One Generator shared by both CEs, as a kernel would share it.
	var sinks [2]*[]int64
	gen := NewGenerator(2, n, func(ceID, i int, in *Instr) {
		if in.Op != 0 || in.Cycles != 0 || in.Flops != 0 || in.Addr != 0 || in.Done != nil {
			t.Errorf("ce%d instr %d: scratch not zeroed before fill", ceID, i)
		}
		fill(ceID, i, in)
		done := sinks[ceID]
		in.Done = func(_ int, _ int64, _ bool, cy int64) { *done = append(*done, cy) }
	})
	streamed := run(func(ceID int, done *[]int64) Controller {
		sinks[ceID] = done
		return gen
	})
	if stored.cycle != streamed.cycle || stored.flops != streamed.flops {
		t.Errorf("stored: cycle %d flops %v; streamed: cycle %d flops %v",
			stored.cycle, stored.flops, streamed.cycle, streamed.flops)
	}
	for id := range stored.done {
		if len(stored.done[id]) != n || !slices.Equal(stored.done[id], streamed.done[id]) {
			t.Errorf("ce%d retire cycles: stored %v, streamed %v", id, stored.done[id], streamed.done[id])
		}
	}
	if st := gen.Next(0, 0, new(Instr)); st != Finished {
		t.Errorf("exhausted generator returned status %v, want Finished", st)
	}
}

// storeStream issues n scalar global stores, all to memory module 0, and
// counts the stalls: the times the CE asks for the next store more than
// two cycles after the last, because the store before it found the CE's
// queue of refused stores full.
type storeStream struct {
	n, i   int
	last   int64
	stalls int
}

func (s *storeStream) Next(_ int, cycle int64, in *Instr) Status {
	if s.i > 0 && cycle-s.last > 2 {
		s.stalls++
	}
	s.last = cycle
	if s.i == s.n {
		return Finished
	}
	in.Op, in.Addr, in.Value = OpGlobalStore, uint64(32*s.i), int64(s.i+1)
	s.i++
	return Ready
}

// TestRefusedStoresCostNoObject saturates the forward fabric with stores:
// the CE issues one a cycle, all to one module, and a two-word store holds
// the CE's ingress wire two cycles, so the fabric refuses them and they
// wait in the CE until its queue is full (storePendingCap) and the CE
// stalls. Each measured run starts from the CE as New built it, its queue
// empty, so a queue that grows on a CE's first refusal pays on every run:
// refused stores must cost no object.
func TestRefusedStoresCostNoObject(t *testing.T) {
	r := newRig(t, 1)
	c := r.ces[0]
	built, ctrl := *c, new(storeStream)
	done := func() bool { return c.Idle() }
	allocs := testing.AllocsPerRun(5, func() {
		*c, *ctrl = built, storeStream{n: 64}
		c.SetController(ctrl)
		if err := r.eng.RunUntil(done, 100_000); err != nil {
			t.Fatal(err)
		}
	})
	if ctrl.stalls == 0 || c.fwd.Stats().Refused == 0 {
		t.Fatalf("the fabric refused %d stores and the CE stalled %d times on a full queue; want both", c.fwd.Stats().Refused, ctrl.stalls)
	}
	if allocs != 0 {
		t.Errorf("a run of refused stores allocates %.0f objects, want 0", allocs)
	}
	if got := r.mem.Store().Load(32 * 63); got != 64 {
		t.Errorf("last store wrote %d, want 64", got)
	}
	t.Logf("refused %d offers, %d stalls", c.fwd.Stats().Refused, ctrl.stalls)
}

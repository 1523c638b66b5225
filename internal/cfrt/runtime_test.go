package cfrt

import (
	"testing"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/params"
)

func mach(t *testing.T, clusters int) *core.Machine {
	t.Helper()
	p := params.Default()
	p.Clusters = clusters
	m, err := core.New(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRuntimeCostsNoObjectPerParticipant requires cfrt.New to cost
// Cedar64 (512 participants) the objects it costs paper Cedar (32), within
// 8: an object per participant, such as a completion callback bound to
// each, puts them hundreds apart.
func TestRuntimeCostsNoObjectPerParticipant(t *testing.T) {
	one := func(_ int, q []ce.Instr) []ce.Instr { return append(q, scalarInstr(1)) }
	cost := func(p params.Machine) float64 {
		m, err := core.New(p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			New(m, Config{UseCedarSync: true}, XDoall{N: 64, Body: one})
		})
	}
	small, big := cost(params.Default()), cost(params.Cedar64())
	if big-small > 8 || small-big > 8 {
		t.Errorf("cfrt.New costs Cedar %.0f objects, Cedar64 %.0f: more than 8 apart", small, big)
	}
	t.Logf("cfrt.New costs Cedar %.0f objects, Cedar64 %.0f", small, big)
}

// recorder collects which CE ran which iteration at what cycle.
type record struct {
	iter  int
	ce    int
	cycle int64
}

func bodyRecording(recs *[]record, work int64) BodyFn {
	return func(iter int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{
			Op: ce.OpScalar, Cycles: work,
			Done: func(_ int, _ int64, _ bool, cy int64) {
				*recs = append(*recs, record{iter: iter, cycle: cy})
			},
		})
	}
}

func coverage(t *testing.T, recs []record, n int) {
	t.Helper()
	seen := make(map[int]int)
	for _, r := range recs {
		seen[r.iter]++
	}
	if len(seen) != n {
		t.Fatalf("covered %d iterations, want %d", len(seen), n)
	}
	for it, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", it, c)
		}
	}
}

func TestXDoallSelfSchedCoversAll(t *testing.T) {
	m := mach(t, 4)
	var recs []record
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 100, Body: bodyRecording(&recs, 50)})
	if _, err := rt.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	coverage(t, recs, 100)
}

func TestXDoallStaticCoversAll(t *testing.T) {
	m := mach(t, 2)
	var recs []record
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 37, Static: true, Body: bodyRecording(&recs, 10)})
	if _, err := rt.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	coverage(t, recs, 37)
}

func TestXDoallStartupNinetyMicroseconds(t *testing.T) {
	// An empty XDOALL costs at least the 90 µs library startup.
	m := mach(t, 4)
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 1, Body: bodyRecording(new([]record), 1)})
	res, err := rt.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	us := res.Seconds * 1e6
	if us < 90 {
		t.Errorf("XDOALL phase took %.1f µs, want ≥ 90 (startup)", us)
	}
	if us > 300 {
		t.Errorf("XDOALL phase took %.1f µs, implausibly long for 1 iteration", us)
	}
}

func TestCedarSyncSpeedsUpFineGrainLoops(t *testing.T) {
	// Small-granularity self-scheduled loop: claims dominate, so Cedar
	// sync must win clearly (the Table 3 "No Synchronization" slowdown).
	const n = 400
	run := func(sync bool) int64 {
		m := mach(t, 4)
		var recs []record
		rt := New(m, Config{UseCedarSync: sync},
			XDoall{N: n, Body: bodyRecording(&recs, 30)})
		res, err := rt.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		coverage(t, recs, n)
		return res.Cycles
	}
	withSync := run(true)
	without := run(false)
	if without <= withSync {
		t.Fatalf("no-sync (%d cyc) not slower than Cedar sync (%d cyc)", without, withSync)
	}
	if ratio := float64(without) / float64(withSync); ratio < 1.5 {
		t.Errorf("no-sync slowdown only %.2f×, want > 1.5× for fine-grain loop", ratio)
	}
}

func TestSerialPhaseRunsOnCEZeroOnly(t *testing.T) {
	m := mach(t, 2)
	ran := 0
	rt := New(m, Config{UseCedarSync: true},
		Serial{Body: func(q []ce.Instr) []ce.Instr {
			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 500, Flops: 123,
				Done: func(int, int64, bool, int64) { ran++ }})
		}})
	res, err := rt.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("serial body ran %d times", ran)
	}
	if res.Flops != 123 {
		t.Errorf("flops = %d, want 123", res.Flops)
	}
}

func TestPhasesAreOrderedByBarriers(t *testing.T) {
	m := mach(t, 4)
	var phase1End, phase2Start int64 = -1, 1 << 62
	b1 := func(iter int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 40, Done: func(_ int, _ int64, _ bool, cy int64) {
			if cy > phase1End {
				phase1End = cy
			}
		}})
	}
	b2 := func(iter int, q []ce.Instr) []ce.Instr {
		return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 40, Done: func(_ int, _ int64, _ bool, cy int64) {
			start := cy - 40
			if start < phase2Start {
				phase2Start = start
			}
		}})
	}
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 64, Body: b1},
		XDoall{N: 64, Body: b2},
	)
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if phase2Start <= phase1End {
		t.Fatalf("phase 2 started at %d before phase 1 ended at %d", phase2Start, phase1End)
	}
}

func TestSDoallCDoallNest(t *testing.T) {
	m := mach(t, 4)
	type key struct{ i, j int }
	seen := make(map[key]int)
	rt := New(m, Config{UseCedarSync: true},
		SDoall{N: 8, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{
				ClusterSerial{Body: func(q []ce.Instr) []ce.Instr {
					return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 20})
				}},
				CDoall{N: 16, Body: func(j int, q []ce.Instr) []ce.Instr {
					return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 25,
						Done: func(int, int64, bool, int64) { seen[key{i, j}]++ }})
				}},
			}
		}})
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8*16 {
		t.Fatalf("covered %d (i,j) pairs, want %d", len(seen), 8*16)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v ran %d times", k, c)
		}
	}
}

func TestSDoallUsesAllClusterCEs(t *testing.T) {
	m := mach(t, 1)
	byCE := make(map[int]int)
	rt := New(m, Config{UseCedarSync: true},
		SDoall{N: 1, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{CDoall{N: 160, Body: func(j int, q []ce.Instr) []ce.Instr {
				return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 200})
			}}}
		}})
	res, err := rt.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Clusters[0].CEs {
		if c.ActiveCycles() > 1000 {
			byCE[c.ID]++
		}
	}
	if len(byCE) != 8 {
		t.Fatalf("only %d CEs did substantial work, want 8", len(byCE))
	}
	// 160 iterations × 200 cycles on 8 CEs ≈ 4000 cycles of body work.
	if res.Cycles > 12000 {
		t.Errorf("CDOALL nest took %d cycles; poor parallelization", res.Cycles)
	}
}

func TestSDoallStaticAffinity(t *testing.T) {
	// Static SDOALL: iteration i runs on cluster i mod 4 with no global
	// claims; every (i, j) pair still runs exactly once.
	m := mach(t, 4)
	type key struct{ i, j int }
	seen := make(map[key]int)
	rt := New(m, Config{UseCedarSync: true},
		SDoall{N: 12, Static: true, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{CDoall{N: 8, Body: func(j int, q []ce.Instr) []ce.Instr {
				return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 30,
					Done: func(int, int64, bool, int64) { seen[key{i, j}]++ }})
			}}}
		}})
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12*8 {
		t.Fatalf("covered %d pairs, want %d", len(seen), 12*8)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v ran %d times", k, c)
		}
	}
}

func TestClustersRestriction(t *testing.T) {
	// Confining execution to one cluster: only 8 CEs work.
	m := mach(t, 4)
	rt := New(m, Config{UseCedarSync: true, Clusters: 1},
		XDoall{N: 64, Body: func(i int, q []ce.Instr) []ce.Instr {
			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 100, Flops: 10})
		}})
	if rt.P() != 8 {
		t.Fatalf("participants = %d, want 8", rt.P())
	}
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, c := range m.CEs {
		if c.Flops() > 0 {
			busy++
		}
	}
	if busy > 8 {
		t.Fatalf("%d CEs did flops, want ≤ 8", busy)
	}
}

func TestTwoSDoallPhasesBackToBack(t *testing.T) {
	// Regression: stale cluster-done state must not release workers early
	// in the second SDOALL phase.
	m := mach(t, 2)
	count := 0
	phase := func() Phase {
		return SDoall{N: 4, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{CDoall{N: 8, Body: func(j int, q []ce.Instr) []ce.Instr {
				return append(q, ce.Instr{Op: ce.OpScalar, Cycles: 10,
					Done: func(int, int64, bool, int64) { count++ }})
			}}}
		}}
	}
	rt := New(m, Config{UseCedarSync: true}, phase(), phase())
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if count != 2*4*8 {
		t.Fatalf("body ran %d times, want %d", count, 2*4*8)
	}
}

func TestVectorBodiesThroughRuntime(t *testing.T) {
	// End-to-end: an XDOALL whose body is a prefetched global vector op.
	m := mach(t, 4)
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 64, Body: func(i int, q []ce.Instr) []ce.Instr {
			base := uint64(i * 512)
			return append(q, ce.Instr{
				Op: ce.OpVector, N: 256, Flops: 2,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: base, Stride: 1, PrefBlock: 256}},
			})
		}})
	res, err := rt.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wantFlops := int64(64 * 256 * 2)
	if res.Flops != wantFlops {
		t.Fatalf("flops = %d, want %d", res.Flops, wantFlops)
	}
	if res.MFLOPS < 20 {
		t.Errorf("aggregate %.1f MFLOPS, want substantial parallel rate", res.MFLOPS)
	}
}

// TestSteadyStateAllocsControllerQueue is the runtime allocation gate on
// the controller instruction queue: a participant that issues everything
// it was handed and is then refilled — the shape of every claim / body /
// barrier round — must reuse one buffer, so Next, enq and an appending
// body allocate nothing once it has grown, and every instruction reaches
// the CE's register by value, in order. (A slide-forward slice queue
// allocates through append growth only, which no syntactic rule sees.)
func TestSteadyStateAllocsControllerQueue(t *testing.T) {
	m := mach(t, 1)
	rt := New(m, Config{UseCedarSync: true}, Serial{Body: func(q []ce.Instr) []ce.Instr { return q }})
	id := rt.ces[0].ID
	var reg ce.Instr
	for rt.Next(id, 0, &reg) == ce.Ready { // drain what New enqueued
	}
	body := func(first int, q []ce.Instr) []ce.Instr {
		for i := 0; i < 7; i++ {
			q = append(q, scalarInstr(int64(first+i)))
		}
		return q
	}
	c := rt.ctl[0]
	round := func() {
		c.enq(scalarInstr(1), scalarInstr(2), scalarInstr(3))
		c.enq(scalarInstr(4), scalarInstr(5))
		c.runBody(body, 6, stIterDone)
		for want := int64(1); want <= 12; want++ {
			if st := rt.Next(id, 0, &reg); st != ce.Ready || reg.Cycles != want {
				t.Fatalf("instruction %d: status %v, register %+v", want, st, reg)
			}
		}
		if st := rt.Next(id, 0, &reg); st != ce.Ready || reg.Cycles != 0 || reg.Done == nil || c.issued != stIterDone {
			t.Fatalf("loop branch behind the body: status %v, register %+v, step %d", st, reg, c.issued)
		}
		if rt.Next(id, 0, &reg) == ce.Ready {
			t.Fatal("queue not drained after issuing every instruction")
		}
		if c.head != 0 || len(c.q) != 0 {
			t.Fatalf("drained queue not rewound: head %d, len %d", c.head, len(c.q))
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("Next/enq allocate %.1f times per drained-and-refilled round, want 0", avg)
	}
}

package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/params"
	"cedar/internal/scope"
)

func TestNewDefaultMachine(t *testing.T) {
	m, err := New(params.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CEs) != 32 {
		t.Errorf("CEs = %d, want 32", len(m.CEs))
	}
	if len(m.Clusters) != 4 {
		t.Errorf("clusters = %d, want 4", len(m.Clusters))
	}
	stride := m.P.NetPorts / m.P.CEs()
	for i, c := range m.CEs {
		if c.ID != i || c.Port != i*stride {
			t.Errorf("CE %d has ID %d port %d, want port %d (spread wiring)", i, c.ID, c.Port, i*stride)
		}
		if c.Cluster != i/8 || c.IDInCluster != i%8 {
			t.Errorf("CE %d cluster mapping %d/%d", i, c.Cluster, c.IDInCluster)
		}
	}
}

func TestNewRejectsInvalidParams(t *testing.T) {
	p := params.Default()
	p.Clusters = 0
	if _, err := New(p, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(params.Default(), Options{Fabric: FabricKind(99)}); err == nil {
		t.Error("unknown fabric accepted")
	}
}

func TestAllocators(t *testing.T) {
	m := MustNew(params.Default(), Options{})
	a := m.AllocGlobal(100)
	b := m.AllocGlobal(50)
	if b != a+100 {
		t.Errorf("global allocs overlap: %d then %d", a, b)
	}
	c := m.AllocGlobalAligned(10, 64)
	if c%64 != 0 {
		t.Errorf("aligned alloc at %d", c)
	}
	l1 := m.Clusters[0].AllocLocal(10)
	l2 := m.Clusters[0].AllocLocal(10)
	if l2 != l1+10 {
		t.Errorf("local allocs overlap: %d then %d", l1, l2)
	}
	// Different clusters have independent address spaces.
	o1 := m.Clusters[1].AllocLocal(10)
	if o1 != l1 {
		t.Errorf("cluster 1 first alloc at %d, want %d (independent space)", o1, l1)
	}
}

func TestRunAggregatesFlops(t *testing.T) {
	m := MustNew(params.Default(), Options{})
	res, err := m.Run(&ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpScalar, Cycles: 1000, Flops: 500},
	}}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops != 32*500 {
		t.Errorf("flops = %d, want %d", res.Flops, 32*500)
	}
	if res.MFLOPS <= 0 || res.Seconds <= 0 {
		t.Errorf("bad derived metrics: %+v", res)
	}
}

func TestRunOnSubset(t *testing.T) {
	m := MustNew(params.Default(), Options{})
	res, err := m.RunOn(m.Clusters[0].CEs, &ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpScalar, Cycles: 100, Flops: 10},
	}}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops != 8*10 {
		t.Errorf("flops = %d, want 80", res.Flops)
	}
}

func TestCrossbarFabricMachine(t *testing.T) {
	m := MustNew(params.Default(), Options{Fabric: FabricCrossbar})
	var got int64
	m.Mem.Store().StoreWord(42, 7)
	res, err := m.RunOn(m.CEs[:1], &ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpGlobalLoad, Addr: 42, Done: func(_ int, v int64, _ bool, _ int64) { got = v }},
	}}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("crossbar load = %d, want 7", got)
	}
	if res.Cycles > 30 {
		t.Errorf("crossbar scalar load took %d cycles", res.Cycles)
	}
}

func TestScaledMachine(t *testing.T) {
	m := MustNew(params.Scaled(8), Options{})
	if len(m.CEs) != 64 {
		t.Errorf("scaled CEs = %d, want 64", len(m.CEs))
	}
	res, err := m.Run(&ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpScalar, Cycles: 10, Flops: 1},
	}}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops != 64 {
		t.Errorf("flops = %d, want 64", res.Flops)
	}
}

func TestAttachBlockStats(t *testing.T) {
	m := MustNew(params.Default(), Options{})
	bs := m.AttachBlockStats(0)
	_, err := m.RunOn(m.CEs[:1], &ce.Program{Instrs: []*ce.Instr{
		{Op: ce.OpVector, N: 64, Flops: 2,
			Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Stride: 1, PrefBlock: 32}}},
	}}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m.CEs[0].PFU().Finish()
	if bs.Blocks() < 2 {
		t.Errorf("observed %d blocks, want ≥ 2 (64 elements in 32-word blocks)", bs.Blocks())
	}
	if bs.MinLatency() < 8 {
		t.Errorf("min latency %d below hardware floor", bs.MinLatency())
	}
}

// TestBuildBudget bounds what core.New allocates: a machine's host
// footprint at construction is its wiring, not its simulated capacity —
// cache tags, prefetch buffers and histogrammers appear when a run touches
// them (DESIGN.md, "Demand-materialised state"). An eager 512 KB tag store
// or 512-slot PFU buffer per CE blows these budgets several times over.
// The object budgets hold the wiring itself to account: per-line fabric
// tables come from one slab per element type, port notification is an
// interface on the consumer, CEs and clusters are slabs and wakers are
// handles by value, so a per-port closure or a per-stage table (406 and
// 5,064 objects before both went) shows up here. Every experiment point
// builds under a hub (bench.Point.Run), so the hub's instrumentation is
// budgeted too. The byte budgets are ≈154 KB and ≈1,745 KB under a hub
// with the headroom they had when every PFU held a whole params.Machine
// (≈162 KB and ≈1,865 KB, budgets 256 KB and 3 MB).
func TestBuildBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       params.Machine
		hub     bool
		budget  int64
		objects int64
	}{
		{"Cedar", params.Default(), false, 243 << 10, 92},
		{"Cedar64", params.Cedar64(), false, 2_874 << 10, 690},
		{"Cedar+hub", params.Default(), true, 243 << 10, 125},
		{"Cedar64+hub", params.Cedar64(), true, 2_874 << 10, 725},
	} {
		objects, bytes := buildCost(t, tc.p, tc.hub)
		if bytes > tc.budget {
			t.Errorf("core.New(%s) allocates %d KB, budget %d KB", tc.name, bytes>>10, tc.budget>>10)
		}
		if objects > tc.objects {
			t.Errorf("core.New(%s) allocates %d objects, budget %d", tc.name, objects, tc.objects)
		}
		t.Logf("core.New(%s): %d KB, %d allocs", tc.name, bytes>>10, objects)
	}
}

// TestBuildCostsNoObjectPerCE builds two paper machines 24 CEs apart (8
// and 2 CEs per cluster) and requires them to differ by fewer than 24
// objects, with and without a hub: one object per CE anywhere in core.New
// fails it. What a cluster costs (its cache, cluster memory and bus
// constructors) is the same on both machines.
func TestBuildCostsNoObjectPerCE(t *testing.T) {
	small := params.Default()
	small.CEsPerCluster = 2
	apart := int64(params.Default().CEs() - small.CEs())
	for _, hub := range []bool{false, true} {
		big, _ := buildCost(t, params.Default(), hub)
		little, _ := buildCost(t, small, hub)
		if big-little >= apart {
			t.Errorf("hub %v: %d CEs cost %d objects, %d CEs %d: %d more for %d more CEs",
				hub, params.Default().CEs(), big, small.CEs(), little, big-little, apart)
		}
		t.Logf("hub %v: %d objects at %d CEs, %d at %d", hub, big, params.Default().CEs(), little, small.CEs())
	}
}

// TestInstrumentCostsNoObjectPerCluster requires the hub's
// instrumentation to cost Cedar64 (64 clusters) the objects it costs
// paper Cedar (4 clusters), within 2: a metric closure or a name per
// cluster fails it.
func TestInstrumentCostsNoObjectPerCluster(t *testing.T) {
	extra := func(p params.Machine) int64 {
		with, _ := buildCost(t, p, true)
		without, _ := buildCost(t, p, false)
		return with - without
	}
	small, big := extra(params.Default()), extra(params.Cedar64())
	if big-small > 2 || small-big > 2 {
		t.Errorf("the hub costs Cedar %d objects, Cedar64 %d: more than 2 apart", small, big)
	}
	t.Logf("the hub costs Cedar %d objects, Cedar64 %d", small, big)
}

// buildCost returns what one core.New of p allocates, in objects and
// bytes; with hub it builds as a bench point does, under a fresh hub that
// records no spans (made before the count starts). It reads raw MemStats
// deltas the way testing.AllocsPerRun keeps other goroutines out of them —
// one P, the collector off — and takes the least of three counts.
func buildCost(t *testing.T, p params.Machine, hub bool) (objects, bytes int64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 3
	hubs := make([]*scope.Hub, 3*runs+1)
	if hub {
		for i := range hubs {
			hubs[i] = scope.NewHub()
			hubs[i].SetTraceCap(0)
		}
	}
	build := func(h *scope.Hub) {
		if _, err := New(p, Options{Scope: h}); err != nil {
			t.Fatal(err)
		}
	}
	build(hubs[3*runs]) // warm-up: first-use costs outside the count
	objects, bytes = math.MaxInt64, math.MaxInt64
	for try := 0; try < 3; try++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			build(hubs[try*runs+i])
		}
		runtime.ReadMemStats(&b)
		objects = min(objects, int64(b.Mallocs-a.Mallocs)/runs)
		bytes = min(bytes, int64(b.TotalAlloc-a.TotalAlloc)/runs)
	}
	return objects, bytes
}

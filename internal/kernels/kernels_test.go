package kernels

import (
	"testing"

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

const testN = 128 // small matrices keep unit tests quick; tables use ≥512

func TestRankUpdateFlopCount(t *testing.T) {
	for _, mode := range []RKMode{RKNoPref, RKPref, RKCache} {
		m := mach(t, 1)
		res, err := RankUpdate(m, testN, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := int64(2 * 64 * testN * testN)
		if res.Flops != want {
			t.Errorf("%v: flops = %d, want %d", mode, res.Flops, want)
		}
	}
}

func TestRankUpdatePrefetchBeatsNoPref(t *testing.T) {
	m1 := mach(t, 1)
	noPref, err := RankUpdate(m1, testN, RKNoPref)
	if err != nil {
		t.Fatal(err)
	}
	m2 := mach(t, 1)
	pref, err := RankUpdate(m2, testN, RKPref)
	if err != nil {
		t.Fatal(err)
	}
	gain := pref.MFLOPS / noPref.MFLOPS
	// Paper (Table 1, one cluster): 50.0 / 14.5 ≈ 3.5.
	if gain < 2.5 || gain > 5.0 {
		t.Errorf("prefetch gain %.2f× on one cluster, want ≈3.5×", gain)
	}
}

func TestRankUpdateCacheScalesAcrossClusters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster sweep in -short mode")
	}
	m1 := mach(t, 1)
	r1, err := RankUpdate(m1, testN, RKCache)
	if err != nil {
		t.Fatal(err)
	}
	m4 := mach(t, 4)
	r4, err := RankUpdate(m4, testN, RKCache)
	if err != nil {
		t.Fatal(err)
	}
	scale := r4.MFLOPS / r1.MFLOPS
	// Paper: 52 → 208, i.e. 4.0× (linear). Small matrices lose some to
	// startup, so accept ≥ 2.5×.
	if scale < 2.5 {
		t.Errorf("GM/cache scaling 1→4 clusters = %.2f×, want near 4×", scale)
	}
}

func TestVectorLoadObservesBlocks(t *testing.T) {
	m := mach(t, 1)
	res, err := VectorLoad(m, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks.Blocks() < 16 {
		t.Errorf("monitored %d blocks, want many 32-word blocks", res.Blocks.Blocks())
	}
	if res.Blocks.MinLatency() < 8 {
		t.Errorf("min latency %d < 8", res.Blocks.MinLatency())
	}
	if res.Flops != 0 {
		t.Errorf("VL should do no flops, got %d", res.Flops)
	}
}

func TestTable2ShapeLatencyGrowsWithCEs(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep in -short mode")
	}
	// The central Table 2 observation: loaded latency and interarrival
	// grow with the number of CEs (8 → 32) due to global memory
	// contention.
	lat := map[int]float64{}
	inter := map[int]float64{}
	for _, clusters := range []int{1, 4} {
		m := mach(t, clusters)
		res, err := VectorLoad(m, 2048, 1)
		if err != nil {
			t.Fatal(err)
		}
		lat[clusters] = res.Blocks.MeanLatency()
		inter[clusters] = res.Blocks.MeanInterarrival()
	}
	if lat[4] <= lat[1] {
		t.Errorf("latency did not grow with CEs: 8 CE %.1f vs 32 CE %.1f", lat[1], lat[4])
	}
	if inter[4] < inter[1] {
		t.Errorf("interarrival shrank with CEs: %.2f vs %.2f", inter[1], inter[4])
	}
}

func TestTriMatFlopsAndRate(t *testing.T) {
	m := mach(t, 1)
	const n = 4096
	res, err := TriMat(m, n)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 * n); res.Flops != want {
		t.Errorf("TM flops = %d, want %d", res.Flops, want)
	}
	if res.MFLOPS < 5 {
		t.Errorf("TM = %.1f MFLOPS on 8 CEs, implausibly low", res.MFLOPS)
	}
}

func TestCGFlopsAndScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("CG sweep in -short mode")
	}
	m := mach(t, 4)
	cfg := CGConfig{N: 8192, Iters: 2}
	res, err := CG(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flops != CGFlops(cfg) {
		t.Errorf("CG flops = %d, want %d", res.Flops, CGFlops(cfg))
	}
	// Paper: 34-48 MFLOPS on 32 processors for 10K ≤ N ≤ 172K.
	if res.MFLOPS < 15 || res.MFLOPS > 120 {
		t.Errorf("CG on 32 CEs = %.1f MFLOPS, want tens", res.MFLOPS)
	}

	// More processors must help at this size.
	m8 := mach(t, 4)
	res8, err := CG(m8, CGConfig{N: 8192, Iters: 2, MaxCEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res8.MFLOPS >= res.MFLOPS {
		t.Errorf("CG 8 CEs (%.1f) not slower than 32 CEs (%.1f)", res8.MFLOPS, res.MFLOPS)
	}
}

func TestCGMaxCEsRestricts(t *testing.T) {
	m := mach(t, 4)
	_, err := CG(m, CGConfig{N: 1024, Iters: 1, MaxCEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, c := range m.CEs {
		if c.Flops() > 0 {
			busy++
		}
	}
	if busy > 2 {
		t.Errorf("%d CEs did flops, want ≤ 2", busy)
	}
}

// Tests of the public facade: everything a downstream user touches.
package cedar_test

import (
	"testing"

	"cedar"
)

func TestDefaultParamsAreCedarAsBuilt(t *testing.T) {
	p := cedar.DefaultParams()
	if p.Clusters != 4 || p.CEsPerCluster != 8 {
		t.Fatalf("default machine is %d×%d, want 4×8", p.Clusters, p.CEsPerCluster)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewMachineAndAllocators(t *testing.T) {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	if len(m.CEs) != 32 {
		t.Fatalf("%d CEs", len(m.CEs))
	}
	a := m.AllocGlobal(10)
	b := m.AllocGlobal(10)
	if b <= a {
		t.Error("allocator not monotone")
	}
}

func TestNewMachineErrReportsBadConfig(t *testing.T) {
	p := cedar.DefaultParams()
	p.Clusters = 0
	if _, err := cedar.NewMachineErr(p, cedar.Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRuntimeThroughFacade(t *testing.T) {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	ran := 0
	rt := cedar.NewRuntime(m, cedar.RuntimeConfig{UseCedarSync: true},
		cedar.XDoall{N: 16, Body: func(i int, q []cedar.Instr) []cedar.Instr {
			return append(q, cedar.Instr{Op: cedar.OpScalar, Cycles: 10, Flops: 5,
				Done: func(int, int64, bool, int64) { ran++ }})
		}})
	res, err := rt.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 16 {
		t.Errorf("ran %d iterations, want 16", ran)
	}
	if res.Flops != 16*5 {
		t.Errorf("flops = %d", res.Flops)
	}
}

func TestKernelsThroughFacade(t *testing.T) {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	res, err := cedar.RankUpdate(m, 64, cedar.RKPref)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFLOPS <= 0 || res.Blocks.Blocks() == 0 {
		t.Errorf("kernel result incomplete: %+v", res.Result)
	}

	m2 := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	if _, err := cedar.VectorLoad(m2, 512, 1); err != nil {
		t.Fatal(err)
	}
	m3 := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	if _, err := cedar.TriMat(m3, 2048); err != nil {
		t.Fatal(err)
	}
	m4 := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	if _, err := cedar.CG(m4, cedar.CGConfig{N: 1024, Iters: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectThroughFacade(t *testing.T) {
	codes := cedar.PerfectCodes()
	if len(codes) != 13 {
		t.Fatalf("%d codes", len(codes))
	}
	out, err := cedar.RunPerfect(cedar.DefaultParams(), codes[0],
		cedar.PerfectSpec{Variant: cedar.PerfectAuto})
	if err != nil {
		t.Fatal(err)
	}
	if out.Seconds <= 0 || out.MFLOPS <= 0 {
		t.Errorf("outcome incomplete: %+v", out)
	}
}

func TestMethodologyThroughFacade(t *testing.T) {
	if cedar.Speedup(100, 10) != 10 {
		t.Error("speedup")
	}
	if cedar.Efficiency(16, 32) != 0.5 {
		t.Error("efficiency")
	}
	if cedar.BandOf(16, 32) != cedar.BandHigh {
		t.Error("band high")
	}
	if cedar.BandOf(1, 32) != cedar.BandUnacceptable {
		t.Error("band unacceptable")
	}
	if cedar.Instability([]float64{1, 10}, 0) != 10 {
		t.Error("instability")
	}
}

func TestCrossbarOptionThroughFacade(t *testing.T) {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{Fabric: cedar.FabricCrossbar})
	res, err := cedar.RankUpdate(m, 64, cedar.RKPref)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFLOPS <= 0 {
		t.Error("crossbar machine did no work")
	}
}

func TestScaledParamsThroughFacade(t *testing.T) {
	p := cedar.ScaledParams(8)
	if p.CEs() != 64 {
		t.Fatalf("scaled CEs = %d", p.CEs())
	}
	m := cedar.NewMachine(p, cedar.Options{})
	if len(m.CEs) != 64 {
		t.Fatal("machine does not match params")
	}
}

// TestMetricTableThroughFacade: a downstream program publishes its own
// metrics beside a machine's, one table for both.
func TestMetricTableThroughFacade(t *testing.T) {
	hub := cedar.NewHub()
	cedar.NewMachine(cedar.DefaultParams(), cedar.Options{Scope: hub})
	hub.Sub("app").Table([]string{"steps", "queue"}, []cedar.MetricKind{cedar.MetricCounter, cedar.MetricGauge},
		func(dst []int64) { dst[0], dst[1] = 12, 3 })
	got := hub.SnapshotUnder("app")
	want := []cedar.MetricSample{{Name: "app/queue", Kind: "gauge", Value: 3}, {Name: "app/steps", Kind: "counter", Value: 12}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("app metrics = %+v, want %+v", got, want)
	}
	if n := len(hub.Snapshot()); n <= len(want) {
		t.Errorf("hub holds %d metrics: the machine's tables are missing", n)
	}
}

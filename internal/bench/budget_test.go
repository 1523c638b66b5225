package bench

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"cedar/internal/fault"
)

// TestPointRunBudget bounds what one whole campaign cell allocates:
// runPoint on cedarperf's sharded point cedar16-vl512 (Cedar16,
// vectorload n = 512), the path every campaign cell and cedarserve
// simulation takes — Point.Run (machine, kernel and hub), then the hub's
// snapshot, filterMetrics and Attribution. core's TestBuildBudget sees
// only construction; this sees what the run materialises on first touch
// — PFU buffers, packet-pool refills, memory-module reply stages, runtime
// queues — and what the outcome copies out of the hub, so a first-touch
// allocation that comes back per element, or a per-cell cost on the
// outcome path, shows up here: ≈198 objects, budget × 1.1 (≈202 under
// -race); a store object beside each of its 17 memories puts it at ≈215,
// and a stream table made per CE rather than carved from the
// machine's stream slab puts it at ≈336, and that with a PFU buffer made
// per CE and a bus object per cluster at ≈472; an arrival
// record per PFU and two completion callbacks per participant put
// Point.Run alone at ≈942, a cache page index, miss-count slice and miss
// table built with each of its 16 caches at ≈543, and a page map built
// with each of its 17 memory stores at ≈488.
func TestPointRunBudget(t *testing.T) {
	const budget = 218
	pt := Point{
		Machine:  MachineSpec{Name: "cedar16", Scaled: 16},
		Workload: WorkloadSpec{Name: "cedar16-vl512", Kind: "vectorload", N: 512, Sweeps: 1},
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := runPoint(pt.Workload.Name, pt, DefaultMetrics, false); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("%s allocates %.0f objects, budget %d", pt.Workload.Name, got, budget)
	}
	t.Logf("%s: %.0f objects", pt.Workload.Name, got)
}

// TestRunCostsNoObjectPerCE runs one prefetched vectorload point (n =
// 128) on Cedar (32 CEs) and on Cedar16 (128 CEs) and requires the two
// cells to differ by fewer objects than CEs: what a CE touches first in a
// run — its PFU buffer and its stream table — comes from slabs its
// machine owns (ce.Shared), so k CEs cost 1 + log2(k) objects there, not
// k. What is left of the difference is Cedar16's twelve more clusters and
// memories: ≈48 objects for 96 more CEs, where a buffer and a table made
// per CE put it at ≈248.
func TestRunCostsNoObjectPerCE(t *testing.T) {
	cell := func(ms MachineSpec) float64 {
		pt := Point{Machine: ms, Workload: WorkloadSpec{Name: "vl128", Kind: "vectorload", N: 128, Sweeps: 1}}
		return testing.AllocsPerRun(3, func() {
			if _, err := runPoint(pt.Workload.Name, pt, DefaultMetrics, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := cell(MachineSpec{Name: "cedar"}), cell(MachineSpec{Name: "cedar16", Scaled: 16})
	const apart = 128 - 32
	if big-small >= apart {
		t.Errorf("Cedar16's cell allocates %.0f objects, Cedar's %.0f: %.0f more for %d more CEs", big, small, big-small, apart)
	}
	t.Logf("%.0f objects at 32 CEs, %.0f at 128", small, big)
}

// TestDensePointByteBudget bounds the bytes one dense kernel cell
// allocates: runPoint on cedarperf's dense point rank48-nopref (Cedar, a
// rank-48 update without prefetch), whose vector stores carry the value 0
// into global memory. TestPointRunBudget counts objects, and a memory page
// is one object whatever its size, so only a byte count sees pages come
// back: ≈160 KB, budget × 1.1, where a 32 KB page for the first store of
// any value put it at ≈225 KB. It reads raw MemStats deltas as core's
// buildCost does: one P, the collector off, the least of three.
func TestDensePointByteBudget(t *testing.T) {
	const budget = 176 << 10
	pt := Point{
		Machine:  MachineSpec{Name: "cedar"},
		Workload: WorkloadSpec{Name: "rank48-nopref", Kind: "rank", N: 48, Variant: "nopref"},
	}
	run := func() {
		if _, err := runPoint(pt.Workload.Name, pt, DefaultMetrics, false); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm-up: first-use costs outside the count
	bytes := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		run()
		runtime.ReadMemStats(&b)
		bytes = min(bytes, b.TotalAlloc-a.TotalAlloc)
	}
	if bytes > budget {
		t.Errorf("%s allocates %d KB, budget %d KB", pt.Workload.Name, bytes>>10, budget>>10)
	}
	t.Logf("%s: %d bytes (%d KB)", pt.Workload.Name, bytes, bytes>>10)
}

// TestFaultRecoveryCostsNoObjectPerFault runs a prefetched vectorload
// point under a plan that fires all five fault kinds, on the omega and on
// the crossbar, and requires four sweeps to cost at most slack objects
// more than one sweep, although they draw four times the faults: the
// NACK, jam, drop, timeout and reissue branches allocate nothing per
// fault, which no healthy run's gate executes. What a longer faulted run
// does pay is the PFU's two recovery queues reaching a higher water mark
// (prefetch.PFU's doc bounds both): a queue that grows by doubling pays
// one object per doubling. Taking four times the faults to raise a
// queue's peak at most fourfold, that is two more growths per queue: 2
// queues × 2 × 32 PFUs on Cedar = 128. Measured: ≈+23 on the omega and
// ≈+21 on the crossbar; one allocation per fault in any of those branches
// adds hundreds to thousands.
func TestFaultRecoveryCostsNoObjectPerFault(t *testing.T) {
	const slack = 2 * 2 * 32
	plan := &fault.Plan{Seed: 41, Faults: []fault.Fault{
		{Kind: fault.BankDead, Module: 3},
		{Kind: fault.BankStall, Module: -1, Rate: 0.05, Extra: 4},
		{Kind: fault.StageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.05},
		{Kind: fault.LinkDrop, Fabric: "fwd", Stage: 0, Line: -1, Rate: 0.01},
		{Kind: fault.PFUNack, Module: -1, Rate: 0.05},
	}}
	for _, fabric := range []string{"omega", "crossbar"} {
		allocs := func(sweeps int) float64 {
			pt := Point{
				Machine:  MachineSpec{Name: "cedar", Fabric: fabric},
				Workload: WorkloadSpec{Name: "vl512", Kind: "vectorload", N: 512, Sweeps: sweeps},
				Plan:     plan,
			}
			return testing.AllocsPerRun(1, func() {
				out, err := pt.Run(nil, false)
				if err != nil || out.Status != "ok" || out.Faults.Nacks == 0 || out.Faults.Timeouts == 0 {
					t.Fatalf("%s, %d sweeps: %+v, %v; want a recovered run that NACKed and timed out", fabric, sweeps, out.Faults, err)
				}
			})
		}
		one, four := allocs(1), allocs(4)
		if four > one+slack {
			t.Errorf("%s: 4 sweeps allocate %.0f objects, 1 sweep %.0f; a faulted run may grow by %d", fabric, four, one, slack)
		}
		t.Logf("%s: %.0f objects at 1 sweep, %.0f at 4", fabric, one, four)
	}
}

// TestValidateAllocatesNothing: Point.Validate, which every admission path
// runs on every point (Point.Run runs it again), costs no object on a
// valid point — every healthy and demo-faulted cell of the smoke campaign
// and a point of each kind. Its errors are built only on the way out.
func TestValidateAllocatesNothing(t *testing.T) {
	c, err := Load("../../bench/campaigns/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var points []Point
	for _, m := range c.Machines {
		for _, w := range c.Workloads {
			points = append(points, Point{Machine: m, Workload: w}, Point{Machine: m, Workload: w, Plan: fault.DemoPlan()})
		}
	}
	for _, w := range []WorkloadSpec{
		{Kind: "banded", BW: 3}, {Kind: "latency", Gap: 5}, {Kind: "membw", CEs: 32},
		{Kind: "perfect", Code: "QCD", Variant: "hand"}, {Kind: "prefblock", Block: 32}, {Kind: "rank", Variant: "nopref"},
		{Kind: "startup"}, {Kind: "trimat"}, {Kind: "xdoall", Variant: "empty", Sched: "guided"},
	} {
		points = append(points, Point{Workload: w})
	}
	for _, pt := range points {
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", pt.Machine.Name, pt.Workload.Name, err)
		}
		if got := testing.AllocsPerRun(10, func() { _ = pt.Validate() }); got != 0 {
			t.Errorf("%s/%s (plan %v): Validate allocates %.0f objects, want 0", pt.Machine.Name, pt.Workload.Kind, pt.Plan != nil, got)
		}
	}
}

package bench

import (
	"testing"

	"cedar/internal/fault"
	"cedar/internal/scope"
)

// TestPointRunBudget bounds what one whole experiment point allocates,
// machine, kernel and hub included: cedarperf's sharded point
// cedar16-vl512 (Cedar16, vectorload n = 512), run as every campaign cell
// and cedarserve request runs it. core's TestBuildBudget sees only
// construction; this sees what the run materialises on first touch — PFU
// buffers, packet-pool refills, memory-module reply stages, runtime
// queues — so a first-touch allocation that comes back per element shows
// up here: ≈560 objects, budget × 1.1; an arrival record per PFU and two
// completion callbacks per participant put it at ≈942.
func TestPointRunBudget(t *testing.T) {
	const budget = 616
	pt := Point{
		Machine:  MachineSpec{Name: "cedar16", Scaled: 16},
		Workload: WorkloadSpec{Name: "cedar16-vl512", Kind: "vectorload", N: 512, Sweeps: 1},
	}
	got := testing.AllocsPerRun(3, func() {
		h := scope.NewHub()
		h.SetTraceCap(0)
		if _, err := pt.Run(h, false); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("%s allocates %.0f objects, budget %d", pt.Workload.Name, got, budget)
	}
	t.Logf("%s: %.0f objects", pt.Workload.Name, got)
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

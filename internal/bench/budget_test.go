package bench

import (
	"testing"

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

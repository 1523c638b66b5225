package cfrt

import (
	"testing"

	"cedar/internal/ce"
)

// event is one posted runtime event, laid out (cycle, kind, CE, value) as
// the tracer record the testdata golden files were generated from, so
// their hashes of the event stream stay comparable across commits.
type event struct {
	Cycle int64
	Kind  uint16
	CE    int32
	Value int64
}

// recordEvents collects every event r posts, in posting order.
func recordEvents(r *Runtime) *[]event {
	evs := new([]event)
	r.onPost = func(cycle int64, kind uint16, ceID int, value int64) {
		*evs = append(*evs, event{cycle, kind, int32(ceID), value})
	}
	return evs
}

func TestTracerCapturesRuntimeEvents(t *testing.T) {
	m := mach(t, 2)
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 24, Body: only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: 20} })},
		SDoall{N: 2, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{CDoall{N: 8, Body: only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: 10} })}}
		}},
	)
	evs := recordEvents(rt)
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}

	kinds := map[uint16]int{}
	for _, e := range *evs {
		kinds[e.Kind]++
		if e.Cycle < 0 {
			t.Fatalf("negative event cycle: %+v", e)
		}
		if e.CE < 0 || e.CE >= 16 {
			t.Fatalf("event from CE %d outside the 2-cluster machine", e.CE)
		}
	}
	// 16 CEs × 2 phases of entry events.
	if kinds[EvPhaseEnter] != 32 {
		t.Errorf("%d phase-enter events, want 32", kinds[EvPhaseEnter])
	}
	// 24 successful claims plus 16 exhausted ones.
	if kinds[EvClaim] < 24 {
		t.Errorf("%d claims, want ≥ 24", kinds[EvClaim])
	}
	// Each CE arrives at each of the two barriers.
	if kinds[EvBarrierArrive] != 32 {
		t.Errorf("%d barrier arrivals, want 32", kinds[EvBarrierArrive])
	}
	// One release store per barrier.
	if kinds[EvBarrierPass] != 2 {
		t.Errorf("%d barrier passes, want 2", kinds[EvBarrierPass])
	}
	// Two SDOALL iterations, one CDOALL broadcast each.
	if kinds[EvCDStart] != 2 {
		t.Errorf("%d cdoall starts, want 2", kinds[EvCDStart])
	}
	// Each broadcast joins all 8 cluster CEs.
	if kinds[EvCDJoin] != 16 {
		t.Errorf("%d cdoall joins, want 16", kinds[EvCDJoin])
	}
}

func TestTracerDetached(t *testing.T) {
	m := mach(t, 1)
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 4, Body: only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: 5} })})
	// No hub and no hook: posting must have nowhere to go and not fail.
	if _, err := rt.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
}

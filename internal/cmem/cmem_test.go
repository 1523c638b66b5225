package cmem

import (
	"testing"

	"cedar/internal/gmem"
)

// fillFunc adapts a completion closure to the Sink interface so tests can
// keep asserting on completion cycles.
type fillFunc func(cy int64)

func (f fillFunc) FillDone(_ uint64, cy int64) { f(cy) }

func TestTransferTiming(t *testing.T) {
	m := New(4, 10, nil)
	var done int64 = -1
	m.Submit(4, fillFunc(func(cy int64) { done = cy }), 0)
	for cycle := int64(0); cycle < 100 && !m.Idle(); cycle++ {
		m.Tick(cycle)
	}
	// 4 words granted in cycle 0, completion 10 cycles later.
	if done != 10 {
		t.Fatalf("completion at %d, want 10", done)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	m := New(4, 10, nil)
	var times []int64
	for i := 0; i < 10; i++ {
		m.Submit(4, fillFunc(func(cy int64) { times = append(times, cy) }), 0)
	}
	for cycle := int64(0); cycle < 1000 && !m.Idle(); cycle++ {
		m.Tick(cycle)
	}
	if len(times) != 10 {
		t.Fatalf("%d completions, want 10", len(times))
	}
	// One 4-word line per cycle at 4 words/cycle.
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 1 {
			t.Fatalf("completions %d cycles apart at %d, want 1", times[i]-times[i-1], i)
		}
	}
}

func TestHalfBandwidthTakesTwice(t *testing.T) {
	m := New(2, 5, nil)
	var last int64
	const n = 20
	for i := 0; i < n; i++ {
		m.Submit(4, fillFunc(func(cy int64) { last = cy }), 0)
	}
	for cycle := int64(0); cycle < 1000 && !m.Idle(); cycle++ {
		m.Tick(cycle)
	}
	// 20 transfers × 4 words at 2 words/cycle = 40 cycles + latency.
	if last < 40 || last > 46 {
		t.Fatalf("last completion at %d, want ≈44", last)
	}
}

func TestZeroWordTransferClamped(t *testing.T) {
	m := New(4, 1, nil)
	fired := false
	m.Submit(0, fillFunc(func(int64) { fired = true }), 0)
	for cycle := int64(0); cycle < 10 && !m.Idle(); cycle++ {
		m.Tick(cycle)
	}
	if !fired {
		t.Error("zero-word transfer never completed")
	}
}

// TestBusyCycles: an 8-word transfer at 4 words/cycle holds the memory
// for two cycles of credit grants, so it completes one latency after the
// second.
func TestBusyCycles(t *testing.T) {
	m := New(4, 1, nil)
	var done int64 = -1
	m.Submit(8, fillFunc(func(cy int64) { done = cy }), 0)
	for cycle := int64(0); cycle < 10 && !m.Idle(); cycle++ {
		m.Tick(cycle)
	}
	if done != 2 {
		t.Errorf("completion at %d, want 2 (8 words at 4/cycle granted in cycles 0 and 1, latency 1)", done)
	}
}

// TestNewKeepsItsOwnStoreInline requires New without a store to cost the
// objects New with one costs: the memory holds its own store by value, so
// a store allocated beside every cluster memory fails here. Two such
// memories must still not share it.
func TestNewKeepsItsOwnStoreInline(t *testing.T) {
	shared := gmem.NewStore()
	var m *Memory // kept, so the compiler cannot place an inlined New on the stack
	own := testing.AllocsPerRun(10, func() { m = New(4, 10, nil) })
	given := testing.AllocsPerRun(10, func() { m = New(4, 10, shared) })
	if m == nil || own == 0 {
		t.Fatalf("New allocates %.0f objects: the measurement saw nothing", own)
	}
	if own != given {
		t.Errorf("New costs %.0f objects with its own store, %.0f given one", own, given)
	}
	a, b := New(4, 10, nil), New(4, 10, nil)
	a.Store().StoreWord(7, 1)
	if b.Store().Load(7) != 0 || a.Store().Load(7) != 1 {
		t.Error("two cluster memories built without a store share one")
	}
}

package perfmon

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTracerCapacityAndDrops(t *testing.T) {
	tr := NewTracer(1)
	for i := 0; i < TracerCap+10; i++ {
		tr.Post(Event{Cycle: int64(i)})
	}
	if len(tr.Events()) != TracerCap {
		t.Errorf("captured %d, want %d", len(tr.Events()), TracerCap)
	}
	if tr.Dropped() != 10 {
		t.Errorf("dropped %d, want 10", tr.Dropped())
	}
}

func TestTracerCascade(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < TracerCap+10; i++ {
		tr.Post(Event{})
	}
	if tr.Dropped() != 0 {
		t.Error("cascaded tracer dropped events below combined capacity")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1)
	h.Add(5)
	h.Add(5)
	h.Add(7)
	if h.Count(5) != 2 || h.Count(7) != 1 {
		t.Errorf("counts: %d,%d", h.Count(5), h.Count(7))
	}
	if h.Total() != 3 {
		t.Errorf("total %d", h.Total())
	}
	want := (5.0*2 + 7) / 3
	if got := h.Mean(); got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestHistogramClampsAndIgnoresBadBins(t *testing.T) {
	h := NewHistogram(1)
	h.Add(-5)
	h.Add(HistogramBins + 100)
	if h.Count(0) != 1 {
		t.Error("negative bin should clamp to 0")
	}
	if h.Count(HistogramBins-1) != 1 {
		t.Error("overflow bin should clamp to last counter")
	}
	if h.Count(-1) != 0 || h.Count(1<<30) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Errorf("median %d, want 50", p)
	}
	if p := h.Percentile(0); p != 0 {
		t.Errorf("p0 = %d, want 0", p)
	}
}

func TestBlockStats(t *testing.T) {
	b := NewBlockStats()
	// Block 1: issued at 10, words at 18, 19, 20 (lat 8, inter 1, 1).
	b.Observe(10, []int64{18, 19, 20})
	// Block 2: issued at 100, words out of order: 120, 110, 114
	// (lat 10, inter 4, 6 after sorting).
	b.Observe(100, []int64{120, 110, 114})
	if b.Blocks() != 2 {
		t.Fatalf("blocks = %d", b.Blocks())
	}
	if got := b.MeanLatency(); got != 9 {
		t.Errorf("mean latency %v, want 9", got)
	}
	if got := b.MinLatency(); got != 8 {
		t.Errorf("min latency %v, want 8", got)
	}
	if got := b.MaxLatency(); got != 10 {
		t.Errorf("max latency %v, want 10", got)
	}
	if got := b.MeanInterarrival(); got != 3 {
		t.Errorf("mean interarrival %v, want (1+1+4+6)/4 = 3", got)
	}
}

func TestBlockStatsEmpty(t *testing.T) {
	b := NewBlockStats()
	b.Observe(5, nil)
	if b.Blocks() != 0 || b.MeanLatency() != 0 || b.MeanInterarrival() != 0 || b.MinLatency() != 0 {
		t.Error("empty observation should be ignored")
	}
}

func TestBlockStatsSortInvariantProperty(t *testing.T) {
	// Interarrival sum == span of sorted arrivals regardless of order.
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		arr := make([]int64, len(raw))
		for i, v := range raw {
			arr[i] = int64(v) + 100
		}
		b := NewBlockStats()
		b.Observe(0, arr)
		min, max := arr[0], arr[0]
		for _, v := range arr {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		wantMean := float64(max-min) / float64(len(arr)-1)
		got := b.MeanInterarrival()
		diff := got - wantMean
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentileExtremes(t *testing.T) {
	// Regression: frac=1 must return the largest occupied bin, not fall
	// through to the overflow bucket at the end of the bin array.
	h := NewHistogram(1)
	for i := 0; i < 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(1.0); p != 99 {
		t.Errorf("p100 = %d, want 99 (largest occupied bin)", p)
	}

	// All mass in a single bin: every percentile is that bin.
	one := NewHistogram(1)
	for i := 0; i < 7; i++ {
		one.Add(42)
	}
	for _, frac := range []float64{0, 0.5, 1} {
		if p := one.Percentile(frac); p != 42 {
			t.Errorf("single-bin p%.0f = %d, want 42", 100*frac, p)
		}
	}

	// Empty histogram: defined as 0 at any fraction.
	if p := NewHistogram(1).Percentile(1); p != 0 {
		t.Errorf("empty p100 = %d, want 0", p)
	}
}

// eagerHist is the histogrammer as it was before bins grew on touch: every
// counter allocated up front. The grow-on-touch Histogram must read the
// same through every accessor.
type eagerHist struct{ bins []uint32 }

func (h *eagerHist) add(bin int) {
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.bins) {
		bin = len(h.bins) - 1
	}
	if h.bins[bin] != math.MaxUint32 {
		h.bins[bin]++
	}
}

func (h *eagerHist) percentile(frac float64) int {
	var total int64
	for _, v := range h.bins {
		total += int64(v)
	}
	if total == 0 {
		return 0
	}
	target := int64(frac * float64(total))
	if target >= total {
		target = total - 1
	}
	if target < 0 {
		target = 0
	}
	var cum int64
	for b, v := range h.bins {
		cum += int64(v)
		if cum > target {
			return b
		}
	}
	return len(h.bins) - 1
}

func TestHistogramGrowOnTouchMatchesEager(t *testing.T) {
	for _, units := range []int{1, 2} {
		size := units * HistogramBins
		h := NewHistogram(units)
		ref := &eagerHist{bins: make([]uint32, size)}
		probes := []int{-1, 0, 1, 63, 64, 65, 1000, size - 2, size - 1, size, size + 7}
		same := func(when string) {
			t.Helper()
			for _, b := range probes {
				want := uint32(0)
				if b >= 0 && b < size {
					want = ref.bins[b]
				}
				if got := h.Count(b); got != want {
					t.Fatalf("units=%d %s: Count(%d) = %d, eager %d", units, when, b, got, want)
				}
			}
			for _, frac := range []float64{0, 0.25, 0.5, 0.99, 1} {
				if got, want := h.Percentile(frac), ref.percentile(frac); got != want {
					t.Fatalf("units=%d %s: Percentile(%v) = %d, eager %d", units, when, frac, got, want)
				}
			}
		}
		add := func(bin int) {
			h.Add(bin)
			ref.add(bin)
		}

		same("empty")
		if len(h.bins) != 0 {
			t.Fatalf("units=%d: NewHistogram stored %d counters before any Add", units, len(h.bins))
		}
		add(0)
		same("after bin 0")
		if len(h.bins) >= size {
			t.Fatalf("units=%d: one Add(0) stored all %d counters", units, len(h.bins))
		}
		rng := rand.New(rand.NewSource(int64(units)))
		for i := 0; i < 2000; i++ {
			add(rng.Intn(1500) - 20) // small bins and a few negatives
		}
		same("after small bins")
		if len(h.bins) > 2048 {
			t.Errorf("units=%d: bins up to 1479 stored %d counters, want ≤ 2048", units, len(h.bins))
		}
		add(size - 1)
		same("after last bin")
		add(size)
		add(size + 100000)
		same("after overflow clamp")
		if len(h.bins) != size {
			t.Errorf("units=%d: stored %d counters after touching the last bin, want %d", units, len(h.bins), size)
		}

		// Saturation: park a counter one short of the 32-bit ceiling on both
		// sides, then push past it.
		fresh := NewHistogram(units)
		fresh.Add(9)
		fresh.bins[9] = math.MaxUint32 - 1
		fresh.Add(9)
		fresh.Add(9)
		if got := fresh.Count(9); got != math.MaxUint32 {
			t.Errorf("units=%d: saturated counter reads %d, want %d", units, got, uint32(math.MaxUint32))
		}
		if got, want := fresh.Total(), int64(math.MaxUint32); got != want {
			t.Errorf("units=%d: Total with a saturated counter = %d, want %d", units, got, want)
		}
	}
}

// TestBlockStatsObserveOwnsItsScratch pins the observer contract from the
// aggregator's side: it neither reorders the caller's arrivals (a later
// observer sees the same snapshot) nor allocates per block once warm.
func TestBlockStatsObserveOwnsItsScratch(t *testing.T) {
	b := NewBlockStats()
	arr := []int64{30, 10, 20, 15}
	b.Observe(5, arr)
	if want := []int64{30, 10, 20, 15}; !slices.Equal(arr, want) {
		t.Errorf("Observe reordered the caller's arrivals: %v", arr)
	}
	if b.MeanLatency() != 5 || b.MeanInterarrival() != 20.0/3 {
		t.Errorf("latency %v interarrival %v, want 5 and %v", b.MeanLatency(), b.MeanInterarrival(), 20.0/3)
	}
	if avg := testing.AllocsPerRun(50, func() { b.Observe(5, arr) }); avg != 0 {
		t.Errorf("a warm Observe allocates %.1f times, want 0", avg)
	}
}

// Package perfmon is the software analogue of Cedar's external performance
// monitoring hardware: time-stamped event tracers (1M events each,
// cascadable) and histogrammers (64K 32-bit counters), plus the derived
// statistics the paper reports — first-word latency and interarrival time
// of prefetch blocks (Table 2) and MFLOPS accounting.
//
// Programs can also post software events, mirroring the paper's note that
// software event tracing posts events to the performance hardware.
package perfmon

import (
	"fmt"
	"math"
	"slices"
)

// Event is one time-stamped trace record.
type Event struct {
	Cycle int64
	Kind  uint16
	CE    int32
	Value int64
}

// TracerCap is the capacity of one hardware event tracer.
const TracerCap = 1 << 20

// Tracer collects time-stamped events. When full it drops new events and
// counts them, like the hardware filling up; cascade by raising units.
type Tracer struct {
	events  []Event
	units   int
	dropped int64
}

// NewTracer builds a tracer cascaded from n hardware units (n ≥ 1).
func NewTracer(units int) *Tracer {
	if units < 1 {
		units = 1
	}
	return &Tracer{units: units}
}

// Post records an event if capacity remains.
func (t *Tracer) Post(e Event) {
	if len(t.events) >= t.units*TracerCap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Events returns the captured trace.
func (t *Tracer) Events() []Event { return t.events }

// Dropped returns the number of events lost to capacity.
func (t *Tracer) Dropped() int64 { return t.dropped }

// HistogramBins is the counter count of one histogrammer unit.
const HistogramBins = 1 << 16

// Histogram is a 64K-counter histogrammer. Out-of-range bins clamp to the
// last counter (an overflow bucket), and counters saturate at 2³²-1 like
// the 32-bit hardware counters. Only tests read one back (Count, Mean,
// Percentile) today; the reading side stays for the end-of-run audit's
// latency and interarrival bounds and cedarserve's per-tier latency, both
// planned in ROADMAP.md.
type Histogram struct {
	// bins holds the counters up to the highest bin touched so far; the
	// rest of the size hardware counters are zero and not stored.
	bins []uint32
	size int
}

// NewHistogram builds a histogrammer cascaded from n units.
func NewHistogram(units int) *Histogram {
	if units < 1 {
		units = 1
	}
	return &Histogram{size: units * HistogramBins}
}

// Add increments the counter for bin.
func (h *Histogram) Add(bin int) {
	if bin < 0 {
		bin = 0
	}
	if bin >= h.size {
		bin = h.size - 1
	}
	if bin >= len(h.bins) {
		h.grow(bin)
	}
	if h.bins[bin] != math.MaxUint32 {
		h.bins[bin]++
	}
}

// grow extends the stored counters to cover bin, doubling so that a
// histogram reaching bin b has reallocated O(log b) times.
func (h *Histogram) grow(bin int) {
	n := max(2*len(h.bins), 64)
	for n <= bin {
		n *= 2
	}
	bins := make([]uint32, min(n, h.size))
	copy(bins, h.bins)
	h.bins = bins
}

// Count returns the value of one counter.
func (h *Histogram) Count(bin int) uint32 {
	if bin < 0 || bin >= len(h.bins) {
		return 0
	}
	return h.bins[bin]
}

// Total returns the sum over all counters.
func (h *Histogram) Total() int64 {
	var s int64
	for _, v := range h.bins {
		s += int64(v)
	}
	return s
}

// Mean returns the counter-weighted mean bin.
func (h *Histogram) Mean() float64 {
	var s, n int64
	for b, v := range h.bins {
		s += int64(b) * int64(v)
		n += int64(v)
	}
	if n == 0 {
		return 0
	}
	return float64(s) / float64(n)
}

// Percentile returns the smallest bin at or below which frac of the mass
// lies (frac in [0,1]).
func (h *Histogram) Percentile(frac float64) int {
	total := h.Total()
	if total == 0 {
		return 0
	}
	// Clamp the rank into [0, total-1]: frac=1 must select the largest
	// occupied bin, not fall through to the last bin of the array.
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
	return h.size - 1
}

// BlockStats aggregates prefetch-block observations the way the paper's
// Table 2 reports them: first-word Latency (cycles from the first address
// issued to the forward network until the first datum returns) and
// Interarrival time between the remaining words of the block.
type BlockStats struct {
	latency  *Histogram
	inter    *Histogram
	blocks   int64
	words    int64
	latSum   int64
	interSum int64
	interN   int64
	latMin   int64
	latMax   int64
	sorted   []int64 // Observe's scratch, reused across blocks
}

// NewBlockStats builds an aggregator.
func NewBlockStats() *BlockStats {
	return &BlockStats{
		latency: NewHistogram(1),
		inter:   NewHistogram(1),
		latMin:  math.MaxInt64,
	}
}

// Observe records one block: the issue cycle of its first address and the
// arrival cycles of its words. It is directly pluggable as a
// prefetch.BlockObserver: arrivals is neither kept nor modified (the
// sort runs on a scratch copy the aggregator owns).
func (b *BlockStats) Observe(firstIssue int64, arrivals []int64) {
	if len(arrivals) == 0 {
		return
	}
	b.sorted = append(b.sorted[:0], arrivals...)
	slices.Sort(b.sorted)
	sorted := b.sorted

	lat := sorted[0] - firstIssue
	b.blocks++
	b.words += int64(len(sorted))
	b.latSum += lat
	b.latency.Add(int(lat))
	if lat < b.latMin {
		b.latMin = lat
	}
	if lat > b.latMax {
		b.latMax = lat
	}
	for i := 1; i < len(sorted); i++ {
		d := sorted[i] - sorted[i-1]
		b.interSum += d
		b.interN++
		b.inter.Add(int(d))
	}
}

// Blocks returns the number of observed blocks.
func (b *BlockStats) Blocks() int64 { return b.blocks }

// MeanLatency returns the average first-word latency in cycles.
func (b *BlockStats) MeanLatency() float64 {
	if b.blocks == 0 {
		return 0
	}
	return float64(b.latSum) / float64(b.blocks)
}

// MinLatency returns the smallest observed first-word latency. Only
// tests call it, and the accessors below; they stay for the reason
// Histogram gives.
func (b *BlockStats) MinLatency() int64 {
	if b.blocks == 0 {
		return 0
	}
	return b.latMin
}

// MaxLatency returns the largest observed first-word latency.
func (b *BlockStats) MaxLatency() int64 { return b.latMax }

// MeanInterarrival returns the average gap between successive words.
func (b *BlockStats) MeanInterarrival() float64 {
	if b.interN == 0 {
		return 0
	}
	return float64(b.interSum) / float64(b.interN)
}

// LatencyHistogram exposes the latency histogrammer.
func (b *BlockStats) LatencyHistogram() *Histogram { return b.latency }

// InterarrivalHistogram exposes the interarrival histogrammer.
func (b *BlockStats) InterarrivalHistogram() *Histogram { return b.inter }

// String formats the Table 2 pair.
func (b *BlockStats) String() string {
	return fmt.Sprintf("latency %.1f interarrival %.2f (%d blocks)",
		b.MeanLatency(), b.MeanInterarrival(), b.blocks)
}

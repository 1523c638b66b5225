// Package ppt implements the performance-evaluation methodology of §4.3:
// the Practical Parallelism Tests. It provides speedup and efficiency,
// the High / Intermediate / Unacceptable performance bands delimited by
// P/2 and P/(2·log₂P), the stability measure St(P, Nᵢ, K, e) with its
// inverse Instability, and the harmonic-mean rate summary used for the
// absolute-performance comparison.
package ppt

import (
	"fmt"
	"math"
	"sort"
)

// Speedup is serial time over parallel time.
func Speedup(serialTime, parallelTime float64) float64 {
	if parallelTime <= 0 {
		return 0
	}
	return serialTime / parallelTime
}

// Efficiency is speedup per processor.
func Efficiency(speedup float64, p int) float64 {
	if p <= 0 {
		return 0
	}
	return speedup / float64(p)
}

// Band is a performance level relative to the processor count.
type Band int

// The three bands of §4.3: speedups of at least P/2 are high, at least
// P/(2·log₂P) intermediate, anything below unacceptable (for P ≥ 8).
const (
	Unacceptable Band = iota
	Intermediate
	High
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case High:
		return "High"
	case Intermediate:
		return "Intermediate"
	case Unacceptable:
		return "Unacceptable"
	}
	return fmt.Sprintf("Band(%d)", int(b))
}

// HighThreshold returns the speedup needed for the high band: P/2.
func HighThreshold(p int) float64 { return float64(p) / 2 }

// AcceptableThreshold returns the speedup needed to escape the
// unacceptable band: P/(2·log₂P).
func AcceptableThreshold(p int) float64 {
	if p < 2 {
		return 0.5
	}
	return float64(p) / (2 * math.Log2(float64(p)))
}

// BandOfSpeedup classifies a speedup on P processors.
func BandOfSpeedup(speedup float64, p int) Band {
	switch {
	case speedup >= HighThreshold(p):
		return High
	case speedup >= AcceptableThreshold(p):
		return Intermediate
	default:
		return Unacceptable
	}
}

// BandOfEfficiency classifies an efficiency Ep on P processors (Table 6's
// formulation: Ep ≥ 0.5 high, Ep ≥ 1/(2·log₂P) intermediate).
func BandOfEfficiency(eff float64, p int) Band {
	return BandOfSpeedup(eff*float64(p), p)
}

// Instability computes In(K, e) for an ensemble of K performance values:
// the max/min ratio after excluding the e most extreme outliers, choosing
// exclusions (from either end) to minimize the ratio — i.e. the best
// contiguous window of K−e values in sorted order. The paper's stability
// St(K, e) is its inverse. It returns +Inf when a window contains a
// non-positive value.
func Instability(perf []float64, e int) float64 {
	k := len(perf)
	if k == 0 || e < 0 || e >= k {
		return math.Inf(1)
	}
	v := make([]float64, k)
	copy(v, perf)
	sort.Float64s(v)
	w := k - e
	best := math.Inf(1)
	for i := 0; i+w <= k; i++ {
		lo, hi := v[i], v[i+w-1]
		if lo <= 0 {
			continue
		}
		if r := hi / lo; r < best {
			best = r
		}
	}
	return best
}

// StableWorkstationLevel is the paper's threshold: a system is stable if
// St ≥ 1/6 (instability ≤ 6), the level workstations exhibited on the
// Perfect codes for twenty years.
const StableWorkstationLevel = 6.0

// ExceptionsForStability returns the smallest e such that In(K, e) ≤ the
// workstation level, or -1 if none exists below K.
func ExceptionsForStability(perf []float64) int {
	for e := 0; e < len(perf); e++ {
		if Instability(perf, e) <= StableWorkstationLevel {
			return e
		}
	}
	return -1
}

// HarmonicMean computes the harmonic mean of positive rates, the summary
// the paper uses for MFLOPS across the Perfect suite.
func HarmonicMean(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	var inv float64
	for _, r := range rates {
		if r <= 0 {
			return 0
		}
		inv += 1 / r
	}
	return float64(len(rates)) / inv
}

// BandCounts tallies efficiencies into the three bands (Table 6's rows).
func BandCounts(effs []float64, p int) (high, intermediate, unacceptable int) {
	for _, e := range effs {
		switch BandOfEfficiency(e, p) {
		case High:
			high++
		case Intermediate:
			intermediate++
		default:
			unacceptable++
		}
	}
	return
}

// ScalabilityCriterion reports PPT4's acceptability over a sweep of
// (processor count, efficiency) points: every point must be High or
// Intermediate and the performance stability across the sweep must be
// within the factor-2 range (0.5 ≤ St ≤ 1 with e = 0). Only tests call
// it today; it stays as §4.3's verdict, which the ppt4 table is to state
// per (machine, N) point (ROADMAP, "PPT4 judged by the paper's own
// criterion").
func ScalabilityCriterion(perf []float64, effs []float64, ps []int) bool {
	if len(effs) != len(ps) {
		return false
	}
	for i, e := range effs {
		if BandOfEfficiency(e, ps[i]) == Unacceptable {
			return false
		}
	}
	return Instability(perf, 0) <= 2
}

package ppt

import (
	"math"
	"testing"
)

// FuzzInstability checks the measure's algebraic invariants on arbitrary
// ensembles: In ≥ 1 when finite, non-increasing in e, scale-invariant,
// and exactly max/min at e = 0.
func FuzzInstability(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1))
	f.Add([]byte{200, 1, 200, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, e8 uint8) {
		if len(raw) < 2 || len(raw) > 64 {
			return
		}
		perf := make([]float64, len(raw))
		mn, mx := math.Inf(1), 0.0
		for i, b := range raw {
			perf[i] = float64(b) + 1 // strictly positive
			if perf[i] < mn {
				mn = perf[i]
			}
			if perf[i] > mx {
				mx = perf[i]
			}
		}
		e := int(e8) % len(perf)

		in := Instability(perf, e)
		if in < 1-1e-12 {
			t.Fatalf("In = %v < 1 on positive data", in)
		}
		if got := Instability(perf, 0); math.Abs(got-mx/mn) > 1e-9 {
			t.Fatalf("In(.,0) = %v, want max/min = %v", got, mx/mn)
		}
		if e > 0 && Instability(perf, e) > Instability(perf, e-1)+1e-9 {
			t.Fatal("In not non-increasing in e")
		}
		// Scale invariance.
		scaled := make([]float64, len(perf))
		for i := range perf {
			scaled[i] = perf[i] * 3.25
		}
		if math.Abs(Instability(scaled, e)-in) > 1e-9*in {
			t.Fatal("In not scale invariant")
		}
	})
}

// FuzzBands checks the band thresholds partition speedups consistently.
func FuzzBands(f *testing.F) {
	f.Add(16.0, uint16(32))
	f.Add(0.5, uint16(8))
	f.Fuzz(func(t *testing.T, sp float64, p16 uint16) {
		if math.IsNaN(sp) || math.IsInf(sp, 0) || sp < 0 || sp > 1e9 {
			return
		}
		p := int(p16%2048) + 2
		b := BandOfSpeedup(sp, p)
		switch b {
		case High:
			if sp < HighThreshold(p) {
				t.Fatal("high below threshold")
			}
		case Intermediate:
			if sp >= HighThreshold(p) || sp < AcceptableThreshold(p) {
				t.Fatal("intermediate outside its window")
			}
		case Unacceptable:
			if sp >= AcceptableThreshold(p) {
				t.Fatal("unacceptable above threshold")
			}
		}
		// Efficiency formulation agrees with the speedup formulation.
		if BandOfEfficiency(sp/float64(p), p) != b {
			t.Fatal("efficiency and speedup classifications disagree")
		}
	})
}

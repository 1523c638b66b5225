package ppt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedupAndEfficiency(t *testing.T) {
	if s := Speedup(100, 10); s != 10 {
		t.Errorf("speedup = %v", s)
	}
	if s := Speedup(100, 0); s != 0 {
		t.Errorf("speedup with zero time = %v", s)
	}
	if e := Efficiency(16, 32); e != 0.5 {
		t.Errorf("efficiency = %v", e)
	}
	if e := Efficiency(16, 0); e != 0 {
		t.Errorf("efficiency P=0 = %v", e)
	}
}

func TestBands(t *testing.T) {
	// P = 32: high ≥ 16, acceptable ≥ 32/(2·5) = 3.2.
	cases := []struct {
		sp   float64
		p    int
		want Band
	}{
		{16, 32, High},
		{17, 32, High},
		{15.9, 32, Intermediate},
		{3.2, 32, Intermediate},
		{3.1, 32, Unacceptable},
		{4, 8, High},
		{8.0 / 6.0, 8, Intermediate}, // 8/(2·3) = 1.333
		{1.2, 8, Unacceptable},
	}
	for _, c := range cases {
		if got := BandOfSpeedup(c.sp, c.p); got != c.want {
			t.Errorf("BandOfSpeedup(%v,%d) = %v, want %v", c.sp, c.p, got, c.want)
		}
	}
	if BandOfEfficiency(0.5, 32) != High {
		t.Error("Ep = .5 should be High")
	}
	for _, eff := range []float64{0.11, 0.2} {
		if BandOfEfficiency(eff, 32) != Intermediate {
			t.Errorf("Ep = %v on 32 should be Intermediate (threshold .1)", eff)
		}
	}
}

func TestInstabilityBasic(t *testing.T) {
	perf := []float64{1, 2, 4, 100}
	if in := Instability(perf, 0); in != 100 {
		t.Errorf("In(4,0) = %v, want 100", in)
	}
	// Excluding one: best window of 3 is {1,2,4} ratio 4.
	if in := Instability(perf, 1); in != 4 {
		t.Errorf("In(4,1) = %v, want 4", in)
	}
	// Excluding two: best window {2,4} ratio 2 or {1,2} ratio 2.
	if in := Instability(perf, 2); in != 2 {
		t.Errorf("In(4,2) = %v, want 2", in)
	}
}

func TestInstabilityExcludesEitherEnd(t *testing.T) {
	// Outliers at both ends: {0.01, 5, 6, 7, 1000}, e = 2 should pick the
	// middle window 7/5 = 1.4.
	perf := []float64{1000, 5, 0.01, 7, 6}
	if in := Instability(perf, 2); math.Abs(in-1.4) > 1e-12 {
		t.Errorf("In = %v, want 1.4", in)
	}
}

func TestInstabilityDegenerate(t *testing.T) {
	if !math.IsInf(Instability(nil, 0), 1) {
		t.Error("empty ensemble should be infinitely unstable")
	}
	if !math.IsInf(Instability([]float64{1, 2}, 2), 1) {
		t.Error("excluding everything should be infinite")
	}
	if !math.IsInf(Instability([]float64{0, 1}, 0), 1) {
		t.Error("zero performance should be infinite")
	}
	if in := Instability([]float64{0, 1}, 1); in != 1 {
		t.Errorf("excluding the zero leaves {1}: In = %v, want 1", in)
	}
}

func TestStabilityInverse(t *testing.T) {
	perf := []float64{2, 4}
	if s := Stability(perf, 0); s != 0.5 {
		t.Errorf("St = %v, want 0.5", s)
	}
	if s := Stability([]float64{0}, 0); s != 0 {
		t.Errorf("St of zero perf = %v, want 0", s)
	}
}

func TestExceptionsForStability(t *testing.T) {
	// Workstation-stable already.
	if e := ExceptionsForStability([]float64{1, 2, 3}); e != 0 {
		t.Errorf("e = %d, want 0", e)
	}
	// One huge outlier.
	if e := ExceptionsForStability([]float64{1, 2, 3, 1000}); e != 1 {
		t.Errorf("e = %d, want 1", e)
	}
	if e := ExceptionsForStability(nil); e != -1 {
		t.Errorf("e = %d, want -1", e)
	}
}

func TestHarmonicMean(t *testing.T) {
	if h := HarmonicMean([]float64{2, 2, 2}); h != 2 {
		t.Errorf("h = %v", h)
	}
	// Harmonic mean is dominated by the slow codes (why SPICE matters).
	h := HarmonicMean([]float64{1, 100})
	if math.Abs(h-1.9802) > 0.001 {
		t.Errorf("h = %v, want ≈1.98", h)
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("non-positive rate should yield 0")
	}
	if HarmonicMean(nil) != 0 {
		t.Error("empty should yield 0")
	}
}

func TestBandCounts(t *testing.T) {
	effs := []float64{0.6, 0.5, 0.3, 0.11, 0.05}
	h, i, u := BandCounts(effs, 32)
	if h != 2 || i != 2 || u != 1 {
		t.Errorf("counts = %d/%d/%d, want 2/2/1", h, i, u)
	}
}

func TestInstabilityWindowProperty(t *testing.T) {
	// In(K, e) is non-increasing in e, and In(K,0) equals max/min.
	f := func(raw []uint16, e8 uint8) bool {
		if len(raw) < 2 {
			return true
		}
		perf := make([]float64, len(raw))
		mn, mx := math.Inf(1), 0.0
		for i, v := range raw {
			perf[i] = float64(v%1000) + 1
			if perf[i] < mn {
				mn = perf[i]
			}
			if perf[i] > mx {
				mx = perf[i]
			}
		}
		if got := Instability(perf, 0); math.Abs(got-mx/mn) > 1e-9 {
			return false
		}
		e := int(e8) % len(perf)
		if e == 0 {
			return true
		}
		return Instability(perf, e) <= Instability(perf, e-1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScalabilityCriterion(t *testing.T) {
	// CG-like sweep: high efficiency, stable rates.
	ok := ScalabilityCriterion(
		[]float64{40, 44, 48},
		[]float64{0.7, 0.6, 0.55},
		[]int{8, 16, 32})
	if !ok {
		t.Error("stable high sweep should pass")
	}
	// An unacceptable point fails.
	if ScalabilityCriterion([]float64{40, 44}, []float64{0.7, 0.05}, []int{8, 32}) {
		t.Error("unacceptable point should fail")
	}
	// Rate varying more than 2× fails.
	if ScalabilityCriterion([]float64{10, 50}, []float64{0.7, 0.6}, []int{8, 16}) {
		t.Error("unstable sweep should fail")
	}
	if ScalabilityCriterion([]float64{1}, []float64{0.7, 0.6}, []int{8}) {
		t.Error("mismatched lengths should fail")
	}
}

func TestEquivalentYears(t *testing.T) {
	if EquivalentYears(10) != 7 {
		t.Errorf("10× = %v years, want 7", EquivalentYears(10))
	}
	if EquivalentYears(0) != 0 || EquivalentYears(-3) != 0 {
		t.Error("non-positive speedups should be 0")
	}
	// The paper's 1000-processor remark: speedups between the acceptable
	// and high levels (P/2logP = 50, P/2 = 500) land around 15 years.
	lo := EquivalentYears(AcceptableThreshold(1000))
	hi := EquivalentYears(HighThreshold(1000))
	if lo > 15 || hi < 15 {
		t.Errorf("1000-processor band [%.1f, %.1f] years should straddle ≈15", lo, hi)
	}
}

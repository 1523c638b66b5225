package comparator

import (
	"math"
	"testing"
)

func code(flops int64, vec, pAuto, pHand float64) CodeSummary {
	return CodeSummary{Flops: flops, VecFrac: vec, ParAutoFrac: pAuto, ParHandFrac: pHand, Cray1VecFrac: vec}
}

func TestYMPRatesOrdering(t *testing.T) {
	y := NewYMP8()
	scalarCode := code(1e9, 0.1, 0.1, 0.5)
	vecCode := code(1e9, 0.95, 0.1, 0.5)
	if y.OneProcSeconds(vecCode) >= y.OneProcSeconds(scalarCode) {
		t.Error("vectorized code should run faster")
	}
	if y.AutoSeconds(vecCode) >= y.OneProcSeconds(vecCode) {
		t.Error("autotasking should not slow a code down")
	}
	if y.HandSeconds(vecCode) >= y.AutoSeconds(vecCode) {
		t.Error("hand parallelization (0.5 > 0.1) should beat autotasking")
	}
}

func TestYMPAmdahlLimit(t *testing.T) {
	y := NewYMP8()
	c := code(1e9, 0.9, 1.0, 1.0)
	sp := y.OneProcSeconds(c) / y.AutoSeconds(c)
	if math.Abs(sp-8) > 1e-9 {
		t.Errorf("fully parallel speedup %v, want 8", sp)
	}
	if eff := y.RestructuringEfficiency(c); math.Abs(eff-1) > 1e-9 {
		t.Errorf("efficiency %v, want 1", eff)
	}
	c0 := code(1e9, 0.9, 0, 0)
	if eff := y.RestructuringEfficiency(c0); math.Abs(eff-0.125) > 1e-9 {
		t.Errorf("serial code efficiency %v, want 1/8", eff)
	}
}

func TestYMPClockAdvantage(t *testing.T) {
	// A highly vectorized code should run near the sustained vector rate,
	// far beyond Cedar's per-processor rates — the 28× clock story.
	y := NewYMP8()
	c := code(1e9, 0.98, 0.0, 0.0)
	mf := float64(c.Flops) / (y.OneProcSeconds(c) * 1e6)
	if mf < 80 || mf > 160 {
		t.Errorf("vector code at %.0f MFLOPS on one YMP CPU, want ≈100+", mf)
	}
}

func TestCray1SlowerThanYMP(t *testing.T) {
	cr := NewCray1()
	y := NewYMP8()
	c := code(1e9, 0.9, 0, 0)
	if cr.MFLOPS(c) >= float64(c.Flops)/(y.OneProcSeconds(c)*1e6) {
		t.Error("Cray-1 should be slower than one YMP processor")
	}
}

func TestCM5CalibrationWindow(t *testing.T) {
	// Paper: 32-node CM-5, 16K ≤ N ≤ 256K: BW=3 delivers 28-32 MFLOPS,
	// BW=11 delivers 58-67 MFLOPS.
	c := NewCM5()
	for _, n := range []int{16 << 10, 64 << 10, 256 << 10} {
		if mf := c.BandedMFLOPS(n, 3, 32); mf < 24 || mf > 36 {
			t.Errorf("BW=3 N=%d: %.1f MFLOPS, want ≈28-32", n, mf)
		}
		if mf := c.BandedMFLOPS(n, 11, 32); mf < 52 || mf > 72 {
			t.Errorf("BW=11 N=%d: %.1f MFLOPS, want ≈58-67", n, mf)
		}
	}
}

func TestCM5CommunicationHurtsSmallN(t *testing.T) {
	c := NewCM5()
	small := c.BandedEfficiency(1<<10, 3, 512)
	big := c.BandedEfficiency(256<<10, 3, 512)
	if small >= big {
		t.Errorf("efficiency should grow with N: %v vs %v", small, big)
	}
}

func TestBandedFlops(t *testing.T) {
	if f := BandedFlops(100, 3); f != 500 {
		t.Errorf("BandedFlops(100,3) = %d, want 500", f)
	}
	if f := BandedFlops(100, 11); f != 2100 {
		t.Errorf("BandedFlops(100,11) = %d, want 2100", f)
	}
}

package kernels

import (
	"math"
	"testing"

	"cedar/internal/params"
)

func TestMemBWSingleCEUnitStride(t *testing.T) {
	m := mach(t, 4)
	pt, err := MemBW(m, 1, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// A lone CE consumes ≈0.7 words/cycle: the raw stream runs at one
	// word per cycle but the vector pipe pays startup per 32-word strip
	// and a refill per 256-word prefetch block. That lands right at the
	// paper's 24 MB/s-per-processor sustained figure (33 MB/s here).
	if pt.WordsPerCycle < 0.6 || pt.WordsPerCycle > 0.85 {
		t.Errorf("solo unit-stride bandwidth %.2f words/cycle, want ≈0.7", pt.WordsPerCycle)
	}
	if pt.MBps < 25 || pt.MBps > 42 {
		t.Errorf("solo bandwidth %.0f MB/s, want ≈33 (paper: 24 MB/s per processor sustained)", pt.MBps)
	}
}

func TestMemBWModuleConflictStride(t *testing.T) {
	// Stride = MemModules from every CE serializes on one module: the
	// aggregate collapses to the module cycle rate regardless of CEs.
	p := params.Default()
	m := mach(t, 4)
	pt, err := MemBW(m, 16, int64(p.MemModules), 256)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / float64(p.MemService)
	if math.Abs(pt.WordsPerCycle-want) > want*0.3 {
		t.Errorf("conflict-stride aggregate %.3f words/cycle, want ≈%.3f (one module)",
			pt.WordsPerCycle, want)
	}
}

func TestMemBWGrowsWithCEsAtUnitStride(t *testing.T) {
	m1 := mach(t, 4)
	one, err := MemBW(m1, 1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m8 := mach(t, 4)
	eight, err := MemBW(m8, 8, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if eight.WordsPerCycle < one.WordsPerCycle*4 {
		t.Errorf("8 CEs deliver %.2f vs 1 CE %.2f words/cycle; poor scaling",
			eight.WordsPerCycle, one.WordsPerCycle)
	}
}

func TestMemBWValidation(t *testing.T) {
	m := mach(t, 1)
	if _, err := MemBW(m, 0, 1, 10); err == nil {
		t.Error("0 CEs accepted")
	}
	if _, err := MemBW(m, 99, 1, 10); err == nil {
		t.Error("too many CEs accepted")
	}
	if _, err := MemBW(m, 1, 1, 0); err == nil {
		t.Error("0 words accepted")
	}
}

func TestBandedFlopsAndRates(t *testing.T) {
	for _, bw := range []int{3, 11} {
		m := mach(t, 4)
		cfg := BandedConfig{N: 8192, BW: bw}
		res, err := Banded(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flops != BandedFlopsCedar(cfg) {
			t.Errorf("BW=%d: flops %d, want %d", bw, res.Flops, BandedFlopsCedar(cfg))
		}
		// §4.3: Cedar's and the CM-5's per-processor rates on these
		// problems are "roughly equivalent" — tens of MFLOPS aggregate.
		if res.MFLOPS < 10 || res.MFLOPS > 200 {
			t.Errorf("BW=%d: %.1f MFLOPS implausible", bw, res.MFLOPS)
		}
	}
}

func TestBandedWiderBandRunsFaster(t *testing.T) {
	// More diagonals per row amortize the per-sweep startup: BW=11 beats
	// BW=3 in aggregate MFLOPS, as on the CM-5 (58-67 vs 28-32).
	m3 := mach(t, 4)
	r3, err := Banded(m3, BandedConfig{N: 8192, BW: 3})
	if err != nil {
		t.Fatal(err)
	}
	m11 := mach(t, 4)
	r11, err := Banded(m11, BandedConfig{N: 8192, BW: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r11.MFLOPS <= r3.MFLOPS {
		t.Errorf("BW=11 (%.1f) not faster than BW=3 (%.1f)", r11.MFLOPS, r3.MFLOPS)
	}
}

func TestBandedValidation(t *testing.T) {
	m := mach(t, 1)
	if _, err := Banded(m, BandedConfig{N: 100, BW: 4}); err == nil {
		t.Error("even bandwidth accepted")
	}
	if _, err := Banded(m, BandedConfig{N: 2, BW: 3}); err == nil {
		t.Error("order below bandwidth accepted")
	}
}

package xylem

import (
	"testing"

	"cedar/internal/params"
)

func TestFormattedCostsMoreThanUnformatted(t *testing.T) {
	io := DefaultIO()
	const words = 1_000_000
	f := io.Seconds(words, Formatted)
	u := io.Seconds(words, Unformatted)
	if f <= u {
		t.Fatalf("formatted %.2f s not more expensive than unformatted %.2f s", f, u)
	}
	// The BDNA story: the format conversion dominates, so switching modes
	// recovers the bulk of the I/O time (Table 4's 1.7× from I/O alone).
	if f/u < 10 {
		t.Errorf("formatted/unformatted ratio %.1f, want conversion-dominated", f/u)
	}
	// Magnitudes: a million formatted words is tens of seconds on a 1990
	// machine; unformatted a second or two.
	if f < 20 || f > 120 {
		t.Errorf("formatted 1M words = %.1f s, want tens of seconds", f)
	}
	if u > 5 {
		t.Errorf("unformatted 1M words = %.1f s, want ≈1", u)
	}
}

func TestIOScalesLinearly(t *testing.T) {
	io := DefaultIO()
	one := io.Seconds(100_000, Formatted)
	ten := io.Seconds(1_000_000, Formatted)
	if ratio := ten / one; ratio < 9.9 || ratio > 10.1 {
		t.Errorf("scaling ratio %.2f, want 10", ratio)
	}
}

// TestContextSwitchIsHalfAMillisecond: a cluster-task switch costs the
// 500 µs the millisecond task regime implies, in whole CE cycles.
func TestContextSwitchIsHalfAMillisecond(t *testing.T) {
	if us := params.CyclesToSeconds(switchCycles) * 1e6; us < 499.9 || us > 500.1 {
		t.Errorf("context switch %d cycles = %.2f µs, want 500", switchCycles, us)
	}
}

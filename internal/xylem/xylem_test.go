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

func TestTaskSpawnIsMilliseconds(t *testing.T) {
	tm := DefaultTasks()
	if s := params.CyclesToSeconds(tm.SpawnCycles); s < 1e-3 || s > 20e-3 {
		t.Errorf("cluster task spawn %.4f s, want milliseconds", s)
	}
	if tm.SwitchCycles <= 0 {
		t.Error("context switch must cost cycles")
	}
}

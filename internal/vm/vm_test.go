package vm

import (
	"testing"

	"cedar/internal/params"
)

func TestFirstTouchFaultsScaleWithClusters(t *testing.T) {
	p := params.Default()
	words := int64(100 * p.PageWords)
	f1 := FirstTouchFaults(p, words, 1)
	f4 := FirstTouchFaults(p, words, 4)
	// "Almost four times the page faults relative to the one-cluster
	// version" — exactly 4× under pure first touch.
	if f4 != 4*f1 {
		t.Errorf("faults %d vs %d, want 4×", f4, f1)
	}
}

func TestMulticlusterPenalty(t *testing.T) {
	p := params.Default()
	words := int64(1000 * p.PageWords)
	if s := MulticlusterPenaltySeconds(p, words, 1); s != 0 {
		t.Errorf("one-cluster penalty %v, want 0", s)
	}
	s4 := MulticlusterPenaltySeconds(p, words, 4)
	if s4 <= 0 {
		t.Error("four-cluster penalty should be positive")
	}
	s2 := MulticlusterPenaltySeconds(p, words, 2)
	if s2 >= s4 {
		t.Error("penalty should grow with clusters")
	}
}

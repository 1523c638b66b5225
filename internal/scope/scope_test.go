package scope

import (
	"strings"
	"testing"
)

func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	h.Counter("c", func() int64 { return 1 })
	h.Gauge("g", func() int64 { return 2 })
	h.Span("t", "s", 0, 10)
	h.Emit("t", "e", 5)
	h.Attribute("ce", func() Attr { return Attr{Busy: 1} })
	if h.Sub("x") != nil {
		t.Error("Sub of nil hub must be nil")
	}
	if h.Metrics() != 0 || h.Snapshot() != nil || h.Spans() != nil ||
		h.TraceDropped() != 0 || h.Attribution() != nil {
		t.Error("nil hub must report empty everything")
	}
	var b strings.Builder
	if err := h.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "metric,kind,value\n" {
		t.Errorf("nil hub CSV = %q", b.String())
	}
}

func TestRegistryAndSnapshot(t *testing.T) {
	h := NewHub()
	n := int64(0)
	h.Counter("b.count", func() int64 { return n })
	h.Gauge("a.depth", func() int64 { return 7 })
	if h.Metrics() != 2 {
		t.Fatalf("Metrics() = %d, want 2", h.Metrics())
	}
	n = 41
	snap := h.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	// Sorted by name: a.depth before b.count.
	if snap[0].Name != "a.depth" || snap[0].Kind != "gauge" || snap[0].Value != 7 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "b.count" || snap[1].Kind != "counter" || snap[1].Value != 41 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
}

func TestSubNamespacesAndSnapshotUnder(t *testing.T) {
	h := NewHub()
	h.Sub("run1").Counter("x", func() int64 { return 1 })
	h.Sub("run2").Counter("x", func() int64 { return 2 })
	h.Sub("run1").Sub("inner").Counter("y", func() int64 { return 3 })
	under := h.SnapshotUnder("run1")
	if len(under) != 2 {
		t.Fatalf("SnapshotUnder(run1) = %d samples, want 2", len(under))
	}
	if under[0].Name != "run1/inner/y" || under[1].Name != "run1/x" {
		t.Errorf("names %q %q", under[0].Name, under[1].Name)
	}
	// "run1" must not match "run1x/..." style prefixes.
	h.Sub("run1x").Counter("z", func() int64 { return 4 })
	if got := len(h.SnapshotUnder("run1")); got != 2 {
		t.Errorf("prefix run1 leaked into run1x: %d samples", got)
	}
}

func TestDuplicateNamesUniquified(t *testing.T) {
	h := NewHub()
	h.Counter("dup", func() int64 { return 1 })
	h.Counter("dup", func() int64 { return 2 })
	h.Counter("dup", func() int64 { return 3 })
	snap := h.Snapshot()
	want := []string{"dup", "dup#2", "dup#3"}
	for i, s := range snap {
		if s.Name != want[i] || s.Value != int64(i+1) {
			t.Errorf("snap[%d] = %+v, want name %s value %d", i, s, want[i], i+1)
		}
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	h := NewHub()
	h.Counter("z", func() int64 { return 9 })
	h.Gauge("a", func() int64 { return -1 })
	var b strings.Builder
	if err := h.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "metric,kind,value\na,gauge,-1\nz,counter,9\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestAttribution(t *testing.T) {
	h := NewHub()
	// Contributors to one class aggregate — even across Sub views, which
	// deliberately do not prefix attribution classes.
	h.Attribute("ce", func() Attr { return Attr{Busy: 10, Stall: 2, Idle: 1} })
	h.Sub("run2").Attribute("ce", func() Attr { return Attr{Busy: 5, Stall: 1, Idle: 0} })
	h.Attribute("gmem", func() Attr { return Attr{Busy: 3} })
	rows := h.Attribution()
	if len(rows) != 2 {
		t.Fatalf("%d classes, want 2", len(rows))
	}
	if rows[0].Class != "ce" || rows[0].Busy != 15 || rows[0].Stall != 3 || rows[0].Idle != 1 {
		t.Errorf("ce row %+v", rows[0])
	}
	if rows[1].Class != "gmem" || rows[1].Busy != 3 {
		t.Errorf("gmem row %+v", rows[1])
	}
	out := FormatAttribution(rows)
	if !strings.Contains(out, "ce") || !strings.Contains(out, "stall") {
		t.Errorf("formatted attribution missing content:\n%s", out)
	}
	if FormatAttribution(nil) == "" {
		t.Error("empty attribution must still render a line")
	}
}

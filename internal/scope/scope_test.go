package scope

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	h.Table([]string{"c", "g"}, []Kind{KindCounter, KindGauge}, func(dst []int64) { dst[0], dst[1] = 1, 2 })
	h.Span("t", "s", 0, 10)
	h.Emit("t", "e", 5)
	h.Attribute("ce", func() Attr { return Attr{Busy: 1} })
	if h.Sub("x") != nil {
		t.Error("Sub of nil hub must be nil")
	}
	if h.Snapshot() != nil || h.Spans() != nil ||
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
	h.Table([]string{"b.count", "a.depth"}, []Kind{KindCounter, KindGauge}, func(dst []int64) { dst[0], dst[1] = n, 7 })
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
	one(h.Sub("run1"), "x", KindCounter, 1)
	one(h.Sub("run2"), "x", KindCounter, 2)
	one(h.Sub("run1").Sub("inner"), "y", KindCounter, 3)
	under := h.SnapshotUnder("run1")
	if len(under) != 2 {
		t.Fatalf("SnapshotUnder(run1) = %d samples, want 2", len(under))
	}
	if under[0].Name != "run1/inner/y" || under[1].Name != "run1/x" {
		t.Errorf("names %q %q", under[0].Name, under[1].Name)
	}
	// "run1" must not match "run1x/..." style prefixes.
	one(h.Sub("run1x"), "z", KindCounter, 4)
	if got := len(h.SnapshotUnder("run1")); got != 2 {
		t.Errorf("prefix run1 leaked into run1x: %d samples", got)
	}
}

func TestDuplicateNamesUniquified(t *testing.T) {
	h := NewHub()
	one(h, "dup", KindCounter, 1)
	h.Table([]string{"dup", "dup"}, []Kind{KindCounter, KindCounter}, func(dst []int64) { dst[0], dst[1] = 2, 3 })
	wantSnapshot(t, h, "dup", 1, "dup#2", 2, "dup#3", 3)
}

// TestSuffixSkipsRegisteredNames: a suffix made for a colliding name
// must not be a name some metric was registered under, or the snapshot
// (and a metrics CSV) holds two rows of one name. A name a Sub view
// makes collides with the same name registered whole.
func TestSuffixSkipsRegisteredNames(t *testing.T) {
	h := NewHub()
	one(h, "x", KindCounter, 1)
	one(h, "x", KindCounter, 2)
	one(h, "x#2", KindCounter, 3)
	wantSnapshot(t, h, "x", 1, "x#2", 3, "x#3", 2)

	h = NewHub()
	one(h.Sub("a"), "b", KindCounter, 1)
	one(h, "a/b", KindGauge, 2)
	one(h.Sub("a"), "b#2", KindCounter, 3)
	wantSnapshot(t, h, "a/b", 1, "a/b#2", 3, "a/b#3", 2)
}

// TestSnapshotNamesAreUnique registers random names, suffixed ones among
// them, and requires the snapshot to be sorted by name, its names to be
// unique, each sample to keep its registered name or add a #k to it, and
// the samples of one registered name to be numbered in registration order
// from the bare name.
func TestSnapshotNamesAreUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []string{"x", "x#2", "x#3", "x#2#2", "x#10", "y"}
	for trial := 0; trial < 500; trial++ {
		h := NewHub()
		var registered []string // by value
		for n := 1 + rng.Intn(12); len(registered) < n; {
			names := make([]string, 1+rng.Intn(3))
			kinds := make([]Kind, len(names))
			for i := range names {
				names[i] = pool[rng.Intn(len(pool))]
			}
			first := int64(len(registered))
			h.Table(names, kinds, func(dst []int64) {
				for i := range dst {
					dst[i] = first + int64(i)
				}
			})
			registered = append(registered, names...)
		}
		seen := map[string]bool{}
		last := map[string]int{} // registered name -> k of its latest sample
		snap := h.Snapshot()
		if !slices.IsSortedFunc(snap, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) }) {
			t.Fatalf("trial %d: snapshot not sorted by name: %+v", trial, snap)
		}
		slices.SortFunc(snap, func(a, b Sample) int { return int(a.Value - b.Value) })
		for _, s := range snap {
			reg := registered[s.Value]
			k := 1
			if s.Name != reg {
				n, err := strconv.Atoi(strings.TrimPrefix(s.Name, reg+"#"))
				if err != nil || !strings.HasPrefix(s.Name, reg+"#") {
					t.Fatalf("trial %d: %q registered, %q in the snapshot", trial, reg, s.Name)
				}
				k = n
			}
			if seen[s.Name] || k <= last[reg] || (last[reg] == 0 && k != 1) {
				t.Fatalf("trial %d: %q registered as sample %d became %q (names so far %v)", trial, reg, s.Value, s.Name, seen)
			}
			seen[s.Name], last[reg] = true, k
		}
	}
}

// one registers a single-metric table reading v.
func one(h *Hub, name string, kind Kind, v int64) {
	h.Table([]string{name}, []Kind{kind}, func(dst []int64) { dst[0] = v })
}

// wantSnapshot requires h's snapshot to be exactly the given name, value
// pairs, in order.
func wantSnapshot(t *testing.T, h *Hub, pairs ...any) {
	t.Helper()
	snap := h.Snapshot()
	if len(snap) != len(pairs)/2 {
		t.Fatalf("snapshot %+v, want %d samples", snap, len(pairs)/2)
	}
	for i, s := range snap {
		if s.Name != pairs[2*i] || s.Value != int64(pairs[2*i+1].(int)) {
			t.Errorf("snap[%d] = %+v, want name %s value %d", i, s, pairs[2*i], pairs[2*i+1])
		}
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	h := NewHub()
	h.Table([]string{"z", "a"}, []Kind{KindCounter, KindGauge}, func(dst []int64) { dst[0], dst[1] = 9, -1 })
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

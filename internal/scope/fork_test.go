package scope

import (
	"bytes"
	"strings"
	"testing"
)

// TestForkAdoptMatchesSequential is the parallel-artifact contract: posting
// a workload through forked children adopted in submission order must
// produce the same hub contents as posting it directly.
func TestForkAdoptMatchesSequential(t *testing.T) {
	post := func(h *Hub, run int) {
		sub := h.Sub("run")
		sub.Table([]string{"ops", "ops", "depth"}, []Kind{KindCounter, KindCounter, KindGauge}, func(dst []int64) {
			dst[0], dst[1], dst[2] = int64(run), int64(run+100), 7 // the two ops collide
		})
		sub.Span("track", "work", int64(run*10), int64(run*10+5))
		sub.Attribute("ce", func() Attr { return Attr{Busy: int64(run)} })
	}

	seq := NewHub()
	for run := 0; run < 3; run++ {
		post(seq, run)
	}

	par := NewHub()
	children := make([]*Hub, 3)
	for run := 0; run < 3; run++ {
		children[run] = par.Fork()
		post(children[run], run)
	}
	for _, c := range children {
		par.Adopt(c)
	}

	var seqCSV, parCSV, seqTr, parTr bytes.Buffer
	if err := seq.WriteMetricsCSV(&seqCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteMetricsCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
		t.Errorf("metrics CSV differs:\nsequential:\n%s\nforked:\n%s", seqCSV.String(), parCSV.String())
	}
	if err := seq.WriteChromeTrace(&seqTr); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteChromeTrace(&parTr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqTr.Bytes(), parTr.Bytes()) {
		t.Error("trace JSON differs between sequential and fork/adopt posting")
	}

	seqAt, parAt := seq.Attribution(), par.Attribution()
	if len(seqAt) != len(parAt) {
		t.Fatalf("attribution rows: %d sequential vs %d forked", len(seqAt), len(parAt))
	}
	for i := range seqAt {
		if seqAt[i] != parAt[i] {
			t.Errorf("attribution row %d: %+v vs %+v", i, seqAt[i], parAt[i])
		}
	}
}

// TestForkAdoptDropAccounting checks that span drops are additive: a child
// inherits the parent's capacity, and adoption re-applies the parent's
// remaining room, so kept spans and the dropped count both match the
// sequential run.
func TestForkAdoptDropAccounting(t *testing.T) {
	const capSpans = 4
	fill := func(h *Hub, jobs, spansPerJob int, fork bool) *Hub {
		for j := 0; j < jobs; j++ {
			target := h
			if fork {
				target = h.Fork()
			}
			for s := 0; s < spansPerJob; s++ {
				target.Span("t", "s", int64(j*100+s), int64(j*100+s+1))
			}
			if fork {
				h.Adopt(target)
			}
		}
		return h
	}
	seq := NewHub()
	seq.SetTraceCap(capSpans)
	fill(seq, 3, 3, false)
	par := NewHub()
	par.SetTraceCap(capSpans)
	fill(par, 3, 3, true)

	if got, want := len(par.Spans()), len(seq.Spans()); got != want {
		t.Fatalf("kept spans = %d, want %d", got, want)
	}
	for i, s := range par.Spans() {
		if s != seq.Spans()[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, seq.Spans()[i])
		}
	}
	if got, want := par.TraceDropped(), seq.TraceDropped(); got != want {
		t.Errorf("dropped = %d, want %d", got, want)
	}
	if seq.TraceDropped() == 0 {
		t.Error("test workload did not overflow the span buffer")
	}
}

func TestForkAdoptNil(t *testing.T) {
	var nilHub *Hub
	if nilHub.Fork() != nil {
		t.Error("Fork of nil hub is not nil")
	}
	nilHub.Adopt(NewHub()) // must not panic
	h := NewHub()
	h.Adopt(nil)
	h.Adopt(h)
	if len(h.Snapshot()) != 0 {
		t.Error("self/nil adopt changed the hub")
	}
}

func TestForkInheritsPrefix(t *testing.T) {
	h := NewHub()
	child := h.Sub("sweep").Fork()
	one(child, "runs", KindCounter, 1)
	h.Adopt(child)
	if got := h.SnapshotUnder("sweep"); len(got) != 1 || got[0].Name != "sweep/runs" {
		t.Errorf("adopted metric = %+v, want one sweep/runs", got)
	}
}

// TestForkAdoptBothChildrenAtCap pins the drop arithmetic when every
// party is saturated: two forked children each fill past the span cap
// before adoption. Conservation must hold exactly — every posted span is
// either kept by the parent or counted dropped exactly once (child-side
// drops carry over verbatim; child-kept spans rejected by the full
// parent are counted by the parent's own bound) — so a double count or
// a lost count both fail.
func TestForkAdoptBothChildrenAtCap(t *testing.T) {
	const (
		capSpans    = 4
		perChild    = capSpans + 2 // each child drops 2 itself
		children    = 2
		totalPosted = children * perChild
	)
	parent := NewHub()
	parent.SetTraceCap(capSpans)

	kids := make([]*Hub, children)
	for c := range kids {
		kids[c] = parent.Fork()
		for s := 0; s < perChild; s++ {
			kids[c].Span("t", "s", int64(c*100+s), int64(c*100+s+1))
		}
		if got := len(kids[c].Spans()); got != capSpans {
			t.Fatalf("child %d kept %d spans, want %d (at cap)", c, got, capSpans)
		}
		if got := kids[c].TraceDropped(); got != perChild-capSpans {
			t.Fatalf("child %d dropped %d, want %d", c, got, perChild-capSpans)
		}
	}
	for _, c := range kids {
		parent.Adopt(c)
	}

	if got := len(parent.Spans()); got != capSpans {
		t.Errorf("parent kept %d spans, want %d", got, capSpans)
	}
	// The first child's kept spans fill the parent; everything else is a
	// drop: 2 (child 0) + 2 (child 1) + 4 (child 1's kept spans bounced
	// off the full parent) = posted - kept.
	if got, want := parent.TraceDropped(), int64(totalPosted-capSpans); got != want {
		t.Errorf("parent dropped = %d, want %d (each loss counted exactly once)", got, want)
	}
	// The kept spans are the first child's, in posting order.
	for i, s := range parent.Spans() {
		if want := (Span{Track: "t", Name: "s", Start: int64(i), End: int64(i + 1)}); s != want {
			t.Errorf("span %d = %+v, want %+v", i, s, want)
		}
	}
}

// TestTableMatchesOneAtATime: a table of mixed counters and gauges,
// registered through a Sub view of a forked child and adopted, writes the
// CSV that registering each of its metrics alone, in order, writes —
// colliding names and a second run's table included.
func TestTableMatchesOneAtATime(t *testing.T) {
	names := []string{"hits", "depth", "hits", "stalls"}
	kinds := []Kind{KindCounter, KindGauge, KindCounter, KindCounter}
	vals := []int64{3, -2, 5, 8}

	tables := NewHub()
	for run := 0; run < 2; run++ {
		child := tables.Fork()
		child.Sub("m").Table(names, kinds, func(dst []int64) {
			for i, v := range vals {
				dst[i] = v + int64(run)
			}
		})
		tables.Adopt(child)
	}

	singles := NewHub()
	for run := 0; run < 2; run++ {
		for i, name := range names {
			one(singles.Sub("m"), name, kinds[i], vals[i]+int64(run))
		}
	}

	var got, want bytes.Buffer
	if err := tables.WriteMetricsCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := singles.WriteMetricsCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("table CSV:\n%s\none at a time:\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "m/hits#4,counter,6\n") || !strings.Contains(got.String(), "m/depth#2,gauge,-1\n") {
		t.Errorf("CSV lacks the second run's suffixed rows:\n%s", got.String())
	}
}

package scope

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSpanClampAndOrder(t *testing.T) {
	h := NewHub()
	h.Span("a", "backwards", 10, 5) // end < start clamps to zero-length
	h.Sub("run").Span("a", "ok", 0, 100)
	h.Emit("a", "mark", 50)
	spans := h.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].End != 10 {
		t.Errorf("backwards span end %d, want clamped to 10", spans[0].End)
	}
	if spans[1].Track != "run/a" {
		t.Errorf("Sub track %q, want run/a", spans[1].Track)
	}
	if !spans[2].Instant || spans[2].Start != 50 || spans[2].End != 50 {
		t.Errorf("instant span %+v", spans[2])
	}
}

func TestTraceCapAndDropAccounting(t *testing.T) {
	h := NewHub()
	h.SetTraceCap(2)
	for i := int64(0); i < 5; i++ {
		h.Span("t", "s", i, i+1)
	}
	if len(h.Spans()) != 2 {
		t.Errorf("%d spans kept, want 2", len(h.Spans()))
	}
	if h.TraceDropped() != 3 {
		t.Errorf("%d dropped, want 3", h.TraceDropped())
	}
	var b bytes.Buffer
	if err := h.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["droppedEvents"] != "3" {
		t.Errorf("droppedEvents = %q, want 3", doc.OtherData["droppedEvents"])
	}
}

// TestTracerCapacityAndDrops: a new hub's span buffer is one hardware
// tracer unit, TracerCap events; the events past it are counted, not kept.
func TestTracerCapacityAndDrops(t *testing.T) {
	h := NewHub()
	for i := int64(0); i < TracerCap+10; i++ {
		h.Emit("t", "e", i)
	}
	if len(h.Spans()) != TracerCap {
		t.Errorf("kept %d spans, want %d", len(h.Spans()), TracerCap)
	}
	if h.TraceDropped() != 10 {
		t.Errorf("dropped %d, want 10", h.TraceDropped())
	}
}

// TestTracerCascade: two cascaded units hold what overflows one.
func TestTracerCascade(t *testing.T) {
	h := NewHub()
	h.SetTraceCap(2 * TracerCap)
	for i := int64(0); i < TracerCap+10; i++ {
		h.Emit("t", "e", i)
	}
	if h.TraceDropped() != 0 {
		t.Errorf("a two-unit buffer dropped %d of %d events", h.TraceDropped(), TracerCap+10)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	h := NewHub()
	h.Span("beta", "work", 0, 200)
	h.Span("alpha", "work", 100, 300)
	h.Emit("beta", "tick", 150)
	var b bytes.Buffer
	if err := h.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// process_name + 2 thread_name metadata + 3 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("%d events, want 6", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "process_name" || doc.TraceEvents[0].Args["name"] != "cedar" {
		t.Errorf("first event %+v", doc.TraceEvents[0])
	}
	// Threads numbered by sorted track name: alpha=0, beta=1.
	if doc.TraceEvents[1].Args["name"] != "alpha" || doc.TraceEvents[1].Tid != 0 {
		t.Errorf("thread 0 metadata %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[2].Args["name"] != "beta" || doc.TraceEvents[2].Tid != 1 {
		t.Errorf("thread 1 metadata %+v", doc.TraceEvents[2])
	}
	first := doc.TraceEvents[3] // posting order: beta's "work"
	if first.Ph != "X" || first.Tid != 1 || first.Ts != 0 || first.Dur <= 0 {
		t.Errorf("complete event %+v", first)
	}
	if last := doc.TraceEvents[5]; last.Ph != "i" {
		t.Errorf("instant event %+v", last)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Hub {
		h := NewHub()
		for i := int64(0); i < 100; i++ {
			h.Span("trk", "s", i*10, i*10+5)
		}
		h.Emit("other", "e", 7)
		return h
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical hubs produced different trace bytes")
	}
	// Writing the same hub twice must also be stable.
	h := build()
	a.Reset()
	b.Reset()
	if err := h.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same hub wrote different trace bytes on second export")
	}
}

func TestNilHubTraceIsValidEmpty(t *testing.T) {
	var h *Hub
	var b bytes.Buffer
	if err := h.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil-hub trace invalid JSON: %v", err)
	}
	// Only the process_name metadata record.
	if len(doc.TraceEvents) != 1 {
		t.Errorf("%d events, want 1", len(doc.TraceEvents))
	}
}

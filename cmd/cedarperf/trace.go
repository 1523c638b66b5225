package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by cedarperf around the
// call — nothing inside the simulator knows it is being traced.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Point  string // the experiment point or request the span belongs to
	Worker int
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, point string, parent, worker int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Point: point, Worker: worker, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// under returns the callback the adapter's traced paths take: it runs f
// inside a child span of parent.
func (t *tracer) under(parent int, point string, worker int) func(name string, f func()) {
	return func(name string, f func()) {
		id := t.begin(name, point, parent, worker)
		f()
		t.end(id)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover. Children may overlap one another (two workers,
// two clients), so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if t == nil {
		return self
	}
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, upTo time.Duration
		for _, k := range kids {
			if k.End > upTo {
				covered += k.End - max(k.Start, upTo)
				upTo = k.End
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, workers as
// threads, parent and point ids in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Worker,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "point": s.Point}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package scope

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cedar/internal/params"
)

// Span is one trace record: a slice of simulated time on a named track
// (a complete event), or an instant when Instant is set. Cycles are the
// only time base — the trace never carries wall-clock time.
type Span struct {
	Track string
	Name  string
	Start int64
	End   int64
	// Instant marks a point event (a Chrome "i" event).
	Instant bool
}

// Span records a complete event covering [start, end] cycles on a track.
// The track is namespaced by the hub's Sub prefix. When the bounded
// buffer is full the event is dropped and counted, like the hardware
// tracer filling up — before its record is built, so posting to a full
// buffer (or to a hub whose cap is 0, which records nothing) costs a
// counter increment.
func (h *Hub) Span(track, name string, start, end int64) {
	if h == nil || h.drop() {
		return
	}
	if end < start {
		end = start
	}
	h.st.spans = append(h.st.spans, Span{Track: h.join(track), Name: name, Start: start, End: end})
}

// Emit records an instant event at the given cycle.
func (h *Hub) Emit(track, name string, cycle int64) {
	if h == nil || h.drop() {
		return
	}
	h.st.spans = append(h.st.spans, Span{Track: h.join(track), Name: name, Start: cycle, End: cycle, Instant: true})
}

// drop reports whether the span buffer is at its cap, and counts the
// event the caller then drops.
func (h *Hub) drop() bool {
	if len(h.st.spans) < h.st.spanCap {
		return false
	}
	h.st.dropped++
	return true
}

func (h *Hub) add(s Span) {
	if !h.drop() {
		h.st.spans = append(h.st.spans, s)
	}
}

// TracerCap is the capacity of one hardware event tracer unit (1M
// events), the span buffer's default bound.
const TracerCap = 1 << 20

// SetTraceCap bounds the span buffer (default TracerCap), cascading
// tracer units as the hardware does. Call before any events are posted;
// shrinking below the current length only affects future posts.
func (h *Hub) SetTraceCap(n int) {
	if h == nil || n < 0 {
		return
	}
	h.st.spanCap = n
}

// Spans returns the captured trace in posting order. Only tests call it:
// it is the one way TestForkAdoptMatchesSequential and network's
// TestOccupancyArbiterMatchesScan compare two traces span by span.
func (h *Hub) Spans() []Span {
	if h == nil {
		return nil
	}
	return h.st.spans
}

// TraceDropped returns the number of events lost to the buffer bound.
// Only tests call it: it is the one way TestTraceCapAndDropAccounting,
// TestTracerCapacityAndDrops, TestTracerCascade and
// TestForkAdoptDropAccounting read the count without parsing a trace.
func (h *Hub) TraceDropped() int64 {
	if h == nil {
		return 0
	}
	return h.st.dropped
}

// chromeEvent is one Chrome trace-event record. Field order is fixed by
// the struct, and encoding/json sorts map keys, so serialization is
// deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// cycleUS converts a cycle stamp to the trace-event microsecond time
// base. The mapping is a pure function of the cycle count, so traces
// stay byte-identical across runs.
func cycleUS(cycle int64) float64 {
	return float64(cycle) * params.CycleNS / 1e3
}

// WriteChromeTrace exports the captured spans as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in Perfetto or chrome://tracing.
// Tracks become threads of one "cedar" process, numbered in sorted track
// order; dropped-event accounting rides in otherData. Output is
// byte-identical across identical runs. A nil hub writes a valid empty
// trace.
func (h *Hub) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var spans []Span
	var dropped int64
	if h != nil {
		spans = h.st.spans
		dropped = h.st.dropped
	}
	if _, err := fmt.Fprintf(bw,
		"{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":\"%d\"},\"traceEvents\":[",
		dropped); err != nil {
		return err
	}

	seen := map[string]bool{}
	var tracks []string
	for _, s := range spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			tracks = append(tracks, s.Track)
		}
	}
	sort.Strings(tracks)
	tid := make(map[string]int, len(tracks))
	for i, t := range tracks {
		tid[t] = i
	}

	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	if err := emit(chromeEvent{Name: "process_name", Ph: "M",
		Args: map[string]string{"name": "cedar"}}); err != nil {
		return err
	}
	for i, t := range tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Tid: i,
			Args: map[string]string{"name": t}}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		ev := chromeEvent{Name: s.Name, Ts: cycleUS(s.Start), Tid: tid[s.Track]}
		if s.Instant {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			ev.Dur = cycleUS(s.End) - cycleUS(s.Start)
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Package scope is the simulator's whole-machine observability hub — the
// software analogue of the external performance-monitoring rack the paper
// describes: cascaded 1M-event tracers and 64K-counter histogrammers
// hooked "to any accessible hardware signal".
//
// A Hub has three faces:
//
//   - a metrics registry: every component publishes named counters
//     (monotonic, read from the component's own Stats) and gauges
//     (instantaneous occupancies), snapshotable at any cycle;
//   - a span/event tracer stamped in simulated cycles only, with a
//     bounded buffer and drop accounting like the hardware tracer,
//     exported as Chrome trace-event JSON (viewable in Perfetto or
//     chrome://tracing);
//   - a cycle-attribution report: busy/stall/idle per component class,
//     answering "where did the cycles go".
//
// A nil *Hub is valid: every method short-circuits, so instrumentation
// stays in place at near-zero cost when observability is off. All emitted
// artifacts are byte-identical across identical runs — metrics are read
// through deterministic closures, snapshots are sorted by name, and the
// trace carries only simulated cycles (never wall clock).
package scope

import (
	"fmt"
	"io"
	"sort"

	"cedar/internal/perfmon"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing count (events,
	// cycles accumulated).
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (queue occupancy, in-flight
	// requests) meaningful to sample over time.
	KindGauge
)

// String renders the kind for CSV and JSON output.
func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

type metric struct {
	name string // final name, uniquified against the owning state
	base string // prefix-joined name before uniquification, for Adopt replay
	kind Kind
	read func() int64
}

// Hub is one observability nexus, shared by every component of a machine
// (or of several machines in a sweep, namespaced via Sub). The zero value
// is not usable; construct with NewHub. A nil *Hub is usable everywhere.
type Hub struct {
	prefix string
	st     *state
}

// state is shared across all Sub views of one hub.
type state struct {
	metrics []metric
	taken   map[string]int
	spans   []Span
	spanCap int
	dropped int64
	attribs []attrib
}

// NewHub builds an empty hub with the default trace capacity (one
// hardware tracer unit: perfmon.TracerCap events).
func NewHub() *Hub {
	return &Hub{st: &state{taken: map[string]int{}, spanCap: perfmon.TracerCap}}
}

// Sub returns a view of the hub that prefixes every metric name and trace
// track with prefix + "/". Sweeps use it to keep per-run registrations
// unique. Sub of a nil hub is nil.
func (h *Hub) Sub(prefix string) *Hub {
	if h == nil {
		return nil
	}
	return &Hub{prefix: h.join(prefix), st: h.st}
}

func (h *Hub) join(name string) string {
	if h.prefix == "" {
		return name
	}
	return h.prefix + "/" + name
}

// register adds a metric, uniquifying colliding names deterministically
// ("x", "x#2", "x#3", ...) so two runtimes on one machine cannot clobber
// each other's registrations.
func (h *Hub) register(name string, kind Kind, read func() int64) {
	h.st.add(metric{base: h.join(name), kind: kind, read: read})
}

// add uniquifies m's base name against this state's taken map and appends
// the metric. Registration and Adopt replay share it, so a forked child's
// metrics land under exactly the names a sequential run would have used.
func (st *state) add(m metric) {
	n := st.taken[m.base]
	st.taken[m.base] = n + 1
	m.name = m.base
	if n > 0 {
		m.name = fmt.Sprintf("%s#%d", m.base, n+1)
	}
	st.metrics = append(st.metrics, m)
}

// Fork returns a detached hub with the same prefix and trace capacity but
// private state, for handing to a worker goroutine: nothing posted to the
// child is visible to h (or vice versa) until Adopt merges it back.
// Fork of a nil hub is nil.
func (h *Hub) Fork() *Hub {
	if h == nil {
		return nil
	}
	return &Hub{prefix: h.prefix, st: &state{taken: map[string]int{}, spanCap: h.st.spanCap}}
}

// Adopt merges a forked child back into h: metric registrations replay
// through h's uniquification (via their base names), spans append under
// h's capacity with drop accounting, and attribution contributors carry
// over. Adopting children in the order their jobs were submitted
// reproduces the sequential run's artifacts byte for byte: names, span
// order, and the dropped-event count all match, because a child inherits
// the parent's capacity and drops are additive. Adopt of or onto nil is a
// no-op.
func (h *Hub) Adopt(child *Hub) {
	if h == nil || child == nil || h.st == child.st {
		return
	}
	for _, m := range child.st.metrics {
		h.st.add(metric{base: m.base, kind: m.kind, read: m.read})
	}
	for _, s := range child.st.spans {
		h.add(s)
	}
	h.st.dropped += child.st.dropped
	h.st.attribs = append(h.st.attribs, child.st.attribs...)
}

// Counter publishes a monotonic count read on demand through read. The
// closure must be deterministic and must stay valid for the life of the
// hub.
func (h *Hub) Counter(name string, read func() int64) {
	if h == nil || read == nil {
		return
	}
	h.register(name, KindCounter, read)
}

// Gauge publishes an instantaneous value read on demand through read.
func (h *Hub) Gauge(name string, read func() int64) {
	if h == nil || read == nil {
		return
	}
	h.register(name, KindGauge, read)
}

// Metrics returns the number of registered metrics.
func (h *Hub) Metrics() int {
	if h == nil {
		return 0
	}
	return len(h.st.metrics)
}

// Sample is one metric reading.
type Sample struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value"`
}

// Snapshot reads every registered metric, returning samples sorted by
// name. Callable at any cycle; the values are whatever the components
// report at that instant.
func (h *Hub) Snapshot() []Sample {
	if h == nil {
		return nil
	}
	out := make([]Sample, 0, len(h.st.metrics))
	for _, m := range h.st.metrics {
		out = append(out, Sample{Name: m.name, Kind: m.kind.String(), Value: m.read()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotUnder returns the samples whose name equals prefix or starts
// with prefix + "/" — one experiment's slice of a shared hub.
func (h *Hub) SnapshotUnder(prefix string) []Sample {
	if h == nil {
		return nil
	}
	var out []Sample
	for _, s := range h.Snapshot() {
		if s.Name == prefix || (len(s.Name) > len(prefix) &&
			s.Name[:len(prefix)] == prefix && s.Name[len(prefix)] == '/') {
			out = append(out, s)
		}
	}
	return out
}

// WriteMetricsCSV writes the full snapshot as a three-column CSV
// (metric,kind,value), sorted by metric name; byte-identical across
// identical runs.
func (h *Hub) WriteMetricsCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "metric,kind,value\n"); err != nil {
		return err
	}
	if h == nil {
		return nil
	}
	for _, s := range h.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s,%s,%d\n", s.Name, s.Kind, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// Package scope is the simulator's whole-machine observability hub — the
// software analogue of the external performance-monitoring rack the paper
// describes: cascaded 1M-event tracers and 64K-counter histogrammers
// hooked "to any accessible hardware signal".
//
// A Hub has three faces:
//
//   - a metrics registry: every source publishes one table of named
//     counters (monotonic, read from the component's own Stats) and
//     gauges (instantaneous occupancies), snapshotable at any cycle;
//   - a span/event tracer stamped in simulated cycles only: the hardware
//     event tracer, one unit of TracerCap events by default, cascaded by
//     SetTraceCap, with drop accounting when full, exported as Chrome
//     trace-event JSON (viewable in Perfetto or chrome://tracing);
//   - a cycle-attribution report: busy/stall/idle per component class,
//     answering "where did the cycles go".
//
// A nil *Hub is valid: every method short-circuits, so instrumentation
// stays in place at near-zero cost when observability is off. All emitted
// artifacts are byte-identical across identical runs — metrics are read
// through deterministic functions, snapshots are sorted by name, and the
// trace carries only simulated cycles (never wall clock).
package scope

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
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

// table is one source's metrics: a fixed list of names, registered under
// one view's prefix, whose values one call of read fills.
type table struct {
	prefix string
	names  []string
	kinds  []Kind
	read   func(dst []int64)
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
	tables  []table
	spans   []Span
	spanCap int
	dropped int64
	attribs []attrib
}

// NewHub builds an empty hub with the default trace capacity (one
// hardware tracer unit: TracerCap events).
func NewHub() *Hub {
	return &Hub{st: &state{spanCap: TracerCap}}
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

// Table publishes one source's metrics, the hub's only registration:
// names[i] is a counter or a gauge as kinds[i] says, and one call of read
// fills dst[i] for every i. The hub keeps names and kinds without copying
// them, so they must not change; read must be deterministic and stay
// valid for the life of the hub. Colliding names (two runtimes on one
// machine) are told apart when a snapshot is taken. Panics if names and
// kinds differ in length.
func (h *Hub) Table(names []string, kinds []Kind, read func(dst []int64)) {
	if h == nil || read == nil {
		return
	}
	if len(kinds) != len(names) {
		panic(fmt.Sprintf("scope: Table of %d names with %d kinds", len(names), len(kinds)))
	}
	h.st.tables = append(h.st.tables, table{prefix: h.prefix, names: names, kinds: kinds, read: read})
}

// Fork returns a detached hub with the same prefix and trace capacity but
// private state, for handing to a worker goroutine: nothing posted to the
// child is visible to h (or vice versa) until Adopt merges it back.
// Fork of a nil hub is nil.
func (h *Hub) Fork() *Hub {
	if h == nil {
		return nil
	}
	return &Hub{prefix: h.prefix, st: &state{spanCap: h.st.spanCap}}
}

// Adopt merges a forked child back into h: its metric tables append after
// h's, spans append under h's capacity with drop accounting, and
// attribution contributors carry over. Adopting children in the order
// their jobs were submitted reproduces the sequential run's artifacts
// byte for byte: names (made unique only when a snapshot is taken), span
// order, and the dropped-event count all match, because a child inherits
// the parent's capacity and drops are additive. Adopt of or onto nil is a
// no-op.
func (h *Hub) Adopt(child *Hub) {
	if h == nil || child == nil || h.st == child.st {
		return
	}
	h.st.tables = append(h.st.tables, child.st.tables...)
	for _, s := range child.st.spans {
		h.add(s)
	}
	h.st.dropped += child.st.dropped
	h.st.attribs = append(h.st.attribs, child.st.attribs...)
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
	n := 0
	for _, t := range h.st.tables {
		n += len(t.names)
	}
	out := make([]Sample, 0, n)
	vals := make([]int64, n) // each table reads into its own stretch
	for _, t := range h.st.tables {
		v := vals[len(out) : len(out)+len(t.names)]
		t.read(v)
		for i, name := range t.names {
			if t.prefix != "" {
				name = t.prefix + "/" + name
			}
			out = append(out, Sample{Name: name, Kind: t.kinds[i].String(), Value: v[i]})
		}
	}
	uniquify(out)
	return out
}

// uniquify sorts samples by name and makes their names unique: after the
// first sample of a name come name#2, name#3, ... in registration order,
// skipping any name#k a sample was registered under (two names made here
// differ in the name or in the k).
func uniquify(out []Sample) {
	named := func(s Sample, name string) int { return strings.Compare(s.Name, name) }
	byName := func(a, b Sample) int { return named(a, b.Name) }
	slices.SortStableFunc(out, byName)
	base, k := "", 0
	for i := range out {
		if i == 0 || out[i].Name != base {
			base, k = out[i].Name, 1
			continue
		}
		// A registered name#k sorts after every sample named name, so it
		// is in the tail past i, which no rename has touched yet.
		for taken := true; taken; {
			k++
			out[i].Name = base + "#" + strconv.Itoa(k)
			_, taken = slices.BinarySearchFunc(out[i+1:], out[i].Name, named)
		}
	}
	slices.SortFunc(out, byName) // a renamed sample may sort elsewhere
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

package cfrt

import (
	"fmt"

	"cedar/internal/perfmon"
	"cedar/internal/scope"
)

// Event kinds the runtime posts to an attached tracer — the paper's
// software event tracing ("It is also possible to post events to the
// performance hardware from programs executing on Cedar").
const (
	// EvPhaseEnter: a CE entered phase Value.
	EvPhaseEnter uint16 = iota + 1
	// EvClaim: a CE claimed iteration Value.
	EvClaim
	// EvBarrierArrive: a CE arrived at the phase-Value barrier.
	EvBarrierArrive
	// EvBarrierPass: a CE passed the phase-Value barrier.
	EvBarrierPass
	// EvCDStart: a cluster master broadcast a CDOALL of Value iterations.
	EvCDStart
	// EvCDJoin: a CE completed a cluster join.
	EvCDJoin

	// evKinds is the number of event kinds, for per-participant counts.
	evKinds = int(EvCDJoin)
)

// SetTracer attaches a perfmon tracer; nil detaches. Events are posted
// with the participant's CE id and the cycle at which the triggering
// instruction completed.
func (r *Runtime) SetTracer(tr *perfmon.Tracer) { r.tracer = tr }

// post records a runtime event if a tracer is attached, and feeds the
// observability hub's counters and phase spans.
func (r *Runtime) post(ci int, cycle int64, kind uint16, value int64) {
	r.observe(ci, cycle, kind, value)
	if r.tracer == nil {
		return
	}
	r.tracer.Post(perfmon.Event{
		Cycle: cycle,
		Kind:  kind,
		CE:    int32(r.ces[ci].ID),
		Value: value,
	})
}

// sumEv totals one event kind over every participant.
func (r *Runtime) sumEv(kind uint16) int64 {
	var v int64
	for _, c := range r.ctl {
		v += c.ev[kind-1]
	}
	return v
}

// The runtime's hub table: five event kinds, each summed by sumEv.
var (
	metricNames = []string{"cfrt.phase_enters", "cfrt.claims", "cfrt.barrier_arrivals", "cfrt.cd_starts", "cfrt.cd_joins"}
	metricKinds = []scope.Kind{scope.KindCounter, scope.KindCounter, scope.KindCounter, scope.KindCounter, scope.KindCounter}
)

// observe folds a runtime event into the scope hub: every kind bumps the
// participant's counter, the first phase entry opens the phase span, and
// the barrier pass (which fires exactly once per phase, on the last
// arrival, cycles after every participant's entry) closes it on the
// "cfrt/phases" track.
func (r *Runtime) observe(ci int, cycle int64, kind uint16, value int64) {
	if r.obs == nil {
		return
	}
	c := r.ctl[ci]
	c.ev[kind-1]++
	switch kind {
	case EvPhaseEnter:
		if k := int(value); c.phaseStart[k] < 0 {
			c.phaseStart[k] = cycle
		}
	case EvBarrierPass:
		k := int(value)
		start := int64(-1)
		for _, o := range r.ctl {
			if s := o.phaseStart[k]; s >= 0 && (start < 0 || s < start) {
				start = s
			}
		}
		if start < 0 {
			start = cycle
		}
		r.obs.Span("cfrt/phases", r.phaseNames[k], start, cycle)
	}
}

// phaseName labels a phase span by index and kind (New keeps the results
// in phaseNames).
func (r *Runtime) phaseName(k int) string {
	switch r.ph[k].(type) {
	case Serial:
		return fmt.Sprintf("phase%d-serial", k)
	case XDoall:
		return fmt.Sprintf("phase%d-xdoall", k)
	case SDoall:
		return fmt.Sprintf("phase%d-sdoall", k)
	}
	return fmt.Sprintf("phase%d", k)
}

package bench

import (
	"fmt"
	"strings"
)

// The regression thresholds, as fractions of the baseline. They are
// fixed for the same reason the paper's performance levels are: a gate
// judged against a per-run setting is not one gate.
const (
	// cycleThreshold flags a point whose simcycles grew by more than 5%.
	// Simcycles are deterministic, so any growth is a model change; the
	// margin only absorbs an intentional small modelling change.
	cycleThreshold = 0.05
	// allocThreshold flags a pass whose malloc count grew by more than
	// 30% — deliberately loose, since allocation counts drift with the Go
	// toolchain and the host.
	allocThreshold = 0.30
)

// staleBaseline is the baseline-to-measured malloc ratio above which
// Diff notes the baseline as stale.
const staleBaseline = 1.3

// DiffReport is the outcome of comparing a new artifact against an old
// baseline.
type DiffReport struct {
	Area string `json:"area"`
	// Regressions is what makes the diff fail: simcycle growth past
	// cycleThreshold, malloc growth past allocThreshold, a point that
	// disappeared from the matrix, or a point whose status changed.
	Regressions []DiffLine `json:"regressions,omitempty"`
	// Improvements and Notes are informational. A "stale baseline" note
	// says the baseline's malloc count is so far above the measured one
	// that allocThreshold, a fraction of the baseline, no longer guards
	// the measured level: refresh the committed artifact.
	Improvements []DiffLine `json:"improvements,omitempty"`
	Notes        []string   `json:"notes,omitempty"`
}

// DiffLine is one compared quantity.
type DiffLine struct {
	ID     string  `json:"id"`     // point ID, or "jobs=N allocs" for a pass
	Metric string  `json:"metric"` // "simcycles", "mallocs", or `status "a" -> "b", simcycles`
	Old    int64   `json:"old"`
	New    int64   `json:"new"`
	Delta  float64 `json:"delta"` // fractional change, (new-old)/old; 0 when ZeroBase
	// ZeroBase marks a line whose baseline value was zero: the fractional
	// change is undefined (it would render as +Inf% or NaN), so Delta is
	// left 0 and the report states new-vs-zero explicitly.
	ZeroBase bool `json:"zero_base,omitempty"`
}

// HasRegressions reports whether the diff should fail.
func (r *DiffReport) HasRegressions() bool { return len(r.Regressions) > 0 }

// Format renders the report for terminals — one line per finding.
func (r *DiffReport) Format() string {
	var b strings.Builder
	line := func(verdict string, l DiffLine) {
		if l.ZeroBase {
			fmt.Fprintf(&b, "%s %s %s: %d -> %d (zero baseline; %% undefined)\n", verdict, l.ID, l.Metric, l.Old, l.New)
			return
		}
		fmt.Fprintf(&b, "%s %s %s: %d -> %d (%+.1f%%)\n", verdict, l.ID, l.Metric, l.Old, l.New, l.Delta*100)
	}
	for _, l := range r.Regressions {
		line("REGRESSION", l)
	}
	for _, l := range r.Improvements {
		line("improvement", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if b.Len() == 0 {
		fmt.Fprintf(&b, "no change: %s matches baseline\n", r.Area)
	}
	return b.String()
}

// Diff compares two artifacts of the same area: per-point simcycles
// against cycleThreshold and per-pass malloc counts (matched by jobs
// value) against allocThreshold. A point present in old but missing from
// new is a regression, and so is a point whose status changed: both mean
// the matrix or the model changed, which must be an explicit baseline
// update, never a silent pass (an abandoned degraded run stops early, so
// its fewer simcycles would otherwise read as an improvement). New
// points and improvements are noted without failing.
func Diff(old, new *Artifact) (*DiffReport, error) {
	if old.Header.Area != new.Header.Area {
		return nil, fmt.Errorf("bench: diff across areas %q vs %q", old.Header.Area, new.Header.Area)
	}

	r := &DiffReport{Area: new.Header.Area}
	newPoints := map[string]PointResult{}
	for _, p := range new.Deterministic.Points {
		newPoints[p.ID] = p
	}
	for _, op := range old.Deterministic.Points {
		np, ok := newPoints[op.ID]
		if !ok {
			r.Regressions = append(r.Regressions, DiffLine{ID: op.ID, Metric: "simcycles", Old: op.SimCycles, New: 0, Delta: -1})
			continue
		}
		delete(newPoints, op.ID)
		l := DiffLine{ID: op.ID, Metric: "simcycles", Old: op.SimCycles, New: np.SimCycles}
		if op.SimCycles == 0 {
			// A zero baseline has no defined fractional change; any growth
			// is reported as new-vs-zero instead of +Inf% (and a 0 -> 0
			// point is genuinely unchanged).
			l.ZeroBase = true
		} else {
			l.Delta = float64(np.SimCycles-op.SimCycles) / float64(op.SimCycles)
		}
		switch {
		case op.Status != np.Status:
			l.Metric = fmt.Sprintf("status %q -> %q, simcycles", op.Status, np.Status)
			r.Regressions = append(r.Regressions, l)
		case l.ZeroBase && np.SimCycles != 0, l.Delta > cycleThreshold:
			r.Regressions = append(r.Regressions, l)
		case l.Delta < -cycleThreshold:
			r.Improvements = append(r.Improvements, l)
		}
	}
	// Iterate new's own order (not the leftover map) so notes are stable.
	for _, np := range new.Deterministic.Points {
		if _, leftover := newPoints[np.ID]; leftover {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: new point (simcycles %d)", np.ID, np.SimCycles))
		}
	}

	// Passes pair up by jobs value. The first baseline entry per value
	// wins: artifacts written while campaigns had a second pass axis
	// repeat a jobs value, and their first pass is the one that ran the
	// schedule every artifact since runs.
	oldRuns := map[int]RunMeasure{}
	for _, m := range old.Measured.Runs {
		if _, dup := oldRuns[m.Jobs]; !dup {
			oldRuns[m.Jobs] = m
		}
	}
	for _, nm := range new.Measured.Runs {
		om, ok := oldRuns[nm.Jobs]
		if !ok {
			continue
		}
		id := fmt.Sprintf("jobs=%d allocs", nm.Jobs)
		if om.Mallocs == 0 {
			// Same zero-baseline rule as simcycles: explicit new-vs-zero,
			// never a NaN or +Inf percentage. Allocations from a baseline
			// that measured none always exceed any fractional threshold.
			if nm.Mallocs != 0 {
				r.Regressions = append(r.Regressions, DiffLine{
					ID: id, Metric: "mallocs",
					Old: 0, New: int64(nm.Mallocs), ZeroBase: true})
			}
			continue
		}
		delta := (float64(nm.Mallocs) - float64(om.Mallocs)) / float64(om.Mallocs)
		l := DiffLine{ID: id, Metric: "mallocs",
			Old: int64(om.Mallocs), New: int64(nm.Mallocs), Delta: delta}
		switch {
		case delta > allocThreshold:
			r.Regressions = append(r.Regressions, l)
		case delta < -allocThreshold:
			r.Improvements = append(r.Improvements, l)
		}
		if float64(om.Mallocs) > staleBaseline*float64(nm.Mallocs) {
			r.Notes = append(r.Notes, fmt.Sprintf("stale baseline: %s baseline %d is more than %.1fx the measured %d; refresh the committed artifact",
				id, om.Mallocs, staleBaseline, nm.Mallocs))
		}
	}
	return r, nil
}

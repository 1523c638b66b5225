// Package sim provides the deterministic simulation engine used by the
// Cedar machine model.
//
// Components register with an Engine and are ticked in registration
// order. Ticking order is part of the model: producers are registered
// before the fabrics that carry their traffic, so a request can traverse
// at most one hop per cycle and all timing is reproducible.
//
// The engine is an event wheel over that fixed order. Components
// implementing Sleeper post their next effective-tick cycle; within a
// cycle only the components that are due are ticked, and when nothing at
// all is due the clock jumps straight to the earliest pending wake — a
// running minimum the tick pass keeps, since it reads every component's
// wake anyway.
// Per-cycle ticking survives only for components that declare no sleep
// (the busy-region rule: a non-Sleeper is assumed live every cycle, and
// while one is registered the clock never jumps). That rule is also the
// whole of the pure stepped schedule the equivalence gates compare
// against: an engine whose components were all registered through Plain
// ticks everything every cycle. Because due components still run in
// registration order and a skipped component's Tick is by contract a
// no-op, the schedule of effective ticks — and therefore every
// deterministic artifact — is byte-identical to the stepped run.
//
// There is one schedule and one goroutine per engine. A second,
// intra-run parallel schedule was tried, measured slower on every
// workload and removed (EXPERIMENTS.md, "Intra-run parallelism");
// parallelism lives between runs, in internal/fleet.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Never is the NextWakeup value meaning "no effective tick is scheduled";
// a component returning it sleeps until something calls its Handle.Wake.
const Never = int64(math.MaxInt64)

// Component is a piece of simulated hardware advanced once per cycle.
type Component interface {
	// Name identifies the component in diagnostics.
	Name() string
	// Tick advances the component by one cycle. cycle is the cycle number
	// being executed, starting at 0.
	Tick(cycle int64)
}

// Idler is implemented by components that can report quiescence; the
// engine's RunUntilIdle uses it to detect completion.
type Idler interface {
	// Idle reports whether the component has no work in flight.
	Idle() bool
}

// Sleeper is implemented by components whose Tick is a guaranteed no-op
// until a known future cycle — the scheduling half of the event wheel.
// The engine skips a sleeping component's ticks entirely (and jumps the
// clock when every component sleeps), so NextWakeup must account for all
// state the component can see, including pending work on its input
// ports. Work that arrives while the component sleeps must wake it via
// the Handle returned by Register (producers call Wake on their
// consumers' behalf); a wake that turns out to be early is harmless —
// the component re-arms through the NextWakeup requery after its tick.
// Registering only Sleeper components also asserts that any RunUntil
// predicate driving the engine depends on component state alone (never
// on the raw cycle count), since predicates are not re-evaluated on
// skipped cycles.
type Sleeper interface {
	// NextWakeup returns the earliest cycle ≥ now at which Tick may have
	// an effect, or Never when no future work is visible. Returning now
	// keeps the component ticking every cycle.
	NextWakeup(now int64) int64
}

// Plain returns c with its Sleeper half hidden: the engine ticks the
// result every cycle, never asks it for a wakeup, and treats Wake on its
// handle as a no-op. Idle still reports through, so RunUntilIdle sees the
// same quiescence. An engine whose components were all registered through
// Plain runs the pure stepped schedule — every component, every cycle, no
// jumps — which is the reference the event wheel must reproduce
// byte-for-byte.
func Plain(c Component) Component {
	if id, ok := c.(Idler); ok {
		return plainIdler{c, id}
	}
	return plain{c}
}

// plain and plainIdler embed the interfaces, not the value, so only
// Name, Tick (and Idle) are promoted and NextWakeup stays out of reach.
type plain struct{ Component }

type plainIdler struct {
	Component
	Idler
}

// SetShards does nothing: every engine runs the one single-goroutine
// schedule. Retained for the frozen cmd/cedarperf seam; delete with it.
func SetShards(int) {}

// Shards returns 1. Retained for the frozen cmd/cedarperf seam; delete
// with it.
func Shards() int { return 1 }

// RegisterShard is Register. Retained for the frozen cmd/cedarperf seam;
// delete with it.
func (e *Engine) RegisterShard(_ int, cs ...Component) []Handle { return e.Register(cs...) }

// Engine drives a set of components with a shared clock.
type Engine struct {
	components []Component
	// idlers caches the components implementing Idler at Register time, so
	// the idle scan does no per-cycle type assertions and IdleCount and
	// RunUntilIdle can never disagree about who is quiescent.
	idlers []namedIdler
	// sched holds, per component index, its Sleeper half (nil for plain
	// components, which are ticked every cycle).
	sched []Sleeper
	// wake is the authoritative next-wake cycle per component; entries for
	// plain components are unused. Component i is due iff wake[i] <= cycle.
	wake []int64
	// soonest answers the wheel's other question — is there a cycle worth
	// jumping to. Whenever no tick pass is running it equals the minimum of
	// wake over the Sleepers (Never when there are none): the pass reads
	// every wake[i] anyway and keeps the minimum as it goes.
	soonest int64
	// pos is the in-cycle position, advanced as each component is about to
	// tick (nothing can look between ticks): components at or before it
	// have had their turn this cycle, so a wake aimed at them lands on the
	// next cycle; later ones can still execute the current one.
	pos int
	// plain counts registered non-Sleeper components; while it is nonzero
	// the clock can never jump (the busy-region rule).
	plain   int
	cycle   int64
	skipped int64
	// inCycle is true during a tick pass; with pos it makes wakes aimed at
	// or before the current cycle land on the earliest cycle the target can
	// still legally execute: the current one if its turn is still ahead,
	// the next one otherwise.
	inCycle bool
}

type namedIdler struct {
	c Component
	i Idler
}

// ErrCycleLimit is returned by RunUntil and RunUntilIdle when the predicate
// does not become true within the cycle budget. The error text names the
// components still reporting busy, so stalls are diagnosable.
var ErrCycleLimit = errors.New("sim: cycle limit exceeded")

// ErrNonPositiveLimit is returned by RunUntil and RunUntilIdle when the
// cycle budget is zero or negative: such a budget is a caller bug, not a
// run that legitimately ran out of cycles, and no component is ticked.
var ErrNonPositiveLimit = errors.New("sim: non-positive cycle limit")

// New returns an empty engine at cycle 0.
func New() *Engine {
	return &Engine{soonest: Never}
}

// Handle names one registered component and carries wakes to it. It is a
// value — an engine pointer and an index — so wiring a component's waker
// costs no closure, and Wake is a direct call. The zero Handle is valid
// and inert, so optional wiring can stay nil-free; IsZero tells a
// component whether it has been wired at all.
type Handle struct {
	e   *Engine
	idx int
}

// IsZero reports whether h is the zero Handle: no engine wired, so Wake
// does nothing.
func (h Handle) IsZero() bool { return h.e == nil }

// Wake schedules the handle's component to tick no later than cycle at
// (clamped to the earliest cycle it can still execute). It is how
// producers announce cross-component work — a packet offered to a
// fabric, a reply pushed to a port — to consumers that may be sleeping.
// Wakes are monotone: they only ever move a component's next tick
// earlier, so a spurious Wake costs one no-op tick and nothing else.
func (h Handle) Wake(at int64) {
	e := h.e
	if e == nil || e.sched[h.idx] == nil {
		return
	}
	if at < e.wake[h.idx] {
		e.setWake(h.idx, at)
	}
}

// setWake records component i's next wake as at, clamped to the earliest
// cycle i can still execute: the current one while its turn in the pass
// is ahead, the next one once pos has reached it. The wake is folded into
// soonest unless the running pass has yet to leave i: the pass folds
// wake[i] itself on the way out, and folding it here would leave soonest
// stale-low after i ticks and re-arms — a cycle executed for nobody.
func (e *Engine) setWake(i int, at int64) {
	floor := e.cycle
	if e.inCycle && i <= e.pos {
		floor++
	}
	if at < floor {
		at = floor
	}
	e.wake[i] = at
	if !e.inCycle || i < e.pos {
		e.soonest = min(e.soonest, at)
	}
}

// Register appends components to the tick order and returns their
// handles, one per component, for wake wiring. Newly registered
// components are due immediately; their first NextWakeup requery (at the
// next run entry) installs the real schedule, so registration order and
// wiring order never race. The engine's per-component slices grow once
// per call, so registering a machine in one call costs its slices, not a
// doubling per component.
func (e *Engine) Register(cs ...Component) []Handle {
	hs := make([]Handle, len(cs))
	e.components = slices.Grow(e.components, len(cs))
	e.idlers = slices.Grow(e.idlers, len(cs))
	e.sched = slices.Grow(e.sched, len(cs))
	e.wake = slices.Grow(e.wake, len(cs))
	for k, c := range cs {
		i := len(e.components)
		e.components = append(e.components, c)
		if id, ok := c.(Idler); ok {
			e.idlers = append(e.idlers, namedIdler{c: c, i: id})
		}
		var s Sleeper
		if sl, ok := c.(Sleeper); ok {
			s = sl
			e.soonest = min(e.soonest, e.cycle)
		} else {
			e.plain++
		}
		e.sched = append(e.sched, s)
		e.wake = append(e.wake, e.cycle)
		hs[k] = Handle{e: e, idx: i}
	}
	return hs
}

// pollAll re-queries every Sleeper's schedule against the current cycle.
// It runs at every public run entry point, so state changes made between
// runs — a controller assigned — are picked up
// without requiring the mutator to know about wakes. Such a change may
// raise a wake, so soonest is recomputed, not folded.
func (e *Engine) pollAll() {
	e.soonest = Never
	for i, s := range e.sched {
		if s != nil {
			e.setWake(i, s.NextWakeup(e.cycle))
		}
	}
}

// Cycle returns the number of cycles executed so far.
func (e *Engine) Cycle() int64 { return e.cycle }

// Components returns the number of registered components. Only tests
// call it: with AwakeComponents it is the one way a gate tells a stepped
// machine (every component always awake) from an event-wheel one —
// core's TestSteppedMachineMatchesEventMachine and tables'
// TestFaultedEnvReachesEveryExperiment.
func (e *Engine) Components() int { return len(e.components) }

// FastForwarded returns the number of cycles the engine jumped over
// entirely — cycles in which no component was due, so no Tick ran.
// Cycles where only some components ticked count as executed.
func (e *Engine) FastForwarded() int64 { return e.skipped }

// AwakeComponents names the components whose declared next wake is at or
// before the current cycle — the ones that would tick now, i.e. the set
// keeping the clock from jumping. Plain (non-Sleeper) components are
// always awake. Diagnostic: it re-queries every Sleeper, so call it
// between runs, not per cycle. Only tests call it, for the reason
// Components gives.
func (e *Engine) AwakeComponents() []string {
	var names []string
	for i, c := range e.components {
		s := e.sched[i]
		if s == nil || s.NextWakeup(e.cycle) <= e.cycle {
			names = append(names, c.Name())
		}
	}
	return names
}

// allIdle is the termination predicate of RunUntilIdle: every registered
// component that implements Idler reports Idle.
func (e *Engine) allIdle() bool {
	for _, x := range e.idlers {
		if !x.i.Idle() {
			return false
		}
	}
	return true
}

// IdleCount returns how many registered components currently report Idle;
// components that do not implement Idler count as idle. It is a liveness
// gauge for the observability hub, and shares its scan with RunUntilIdle.
func (e *Engine) IdleCount() int {
	n := len(e.components)
	for _, x := range e.idlers {
		if !x.i.Idle() {
			n--
		}
	}
	return n
}

// busyNameCap bounds how many component names a cycle-limit error carries.
const busyNameCap = 8

// busyNames lists the components still reporting busy, for diagnostics.
func (e *Engine) busyNames() []string {
	var names []string
	for _, x := range e.idlers {
		if !x.i.Idle() {
			if len(names) == busyNameCap {
				names = append(names, "...")
				break
			}
			names = append(names, x.c.Name())
		}
	}
	return names
}

func (e *Engine) limitErr(limit int64) error {
	if busy := e.busyNames(); len(busy) > 0 {
		return fmt.Errorf("%w after %d cycles (busy: %s)",
			ErrCycleLimit, limit, strings.Join(busy, ", "))
	}
	return fmt.Errorf("%w after %d cycles", ErrCycleLimit, limit)
}

// stepOnce executes the current cycle: every plain component, and every
// Sleeper whose wake is due, in index order. Dueness is evaluated when
// the iteration reaches the component, so a producer ticking earlier in
// the pass can still hand a later consumer same-cycle work via Wake.
// After a due Sleeper ticks, its schedule is re-queried for the next
// cycle. The pass rebuilds soonest from the wake it leaves behind each
// Sleeper — the skipped one's unchanged wake, the ticked one's re-arm —
// in a local, so the loop keeps it in a register; e.soonest meanwhile
// collects what setWake folds (wakes aimed at components already
// passed), and the two meet when the pass ends. Plain and due components
// share the one Tick call site on purpose: with a second one the compiler
// spills the loop's registers on the skip path too, which is most of the
// pass (sparse runs measured 16% slower that way).
func (e *Engine) stepOnce() {
	c := e.cycle
	next := c + 1
	e.inCycle = true
	e.soonest = Never
	soonest := Never
	for i, s := range e.sched {
		w := e.wake[i]
		if s != nil && w > c {
			soonest = min(soonest, w)
			continue
		}
		e.pos = i
		e.components[i].Tick(c)
		if s != nil {
			w = max(s.NextWakeup(next), next)
			e.wake[i] = w
			soonest = min(soonest, w)
		}
	}
	e.soonest = min(e.soonest, soonest)
	e.inCycle = false
	e.cycle = next
}

// tryJump advances the clock to the earliest pending wake when no
// component is due this cycle, clamped to deadline so limit accounting
// matches a stepped run, and reports whether it moved. Callers pass a
// deadline beyond the current cycle. Jumps are what FastForwarded counts:
// cycles in which nothing at all ran.
func (e *Engine) tryJump(deadline int64) bool {
	if e.plain > 0 || e.soonest <= e.cycle {
		return false
	}
	t := min(e.soonest, deadline)
	e.skipped += t - e.cycle
	e.cycle = t
	return true
}

// Step executes exactly one cycle.
func (e *Engine) Step() {
	e.pollAll()
	e.stepOnce()
}

// Run advances the clock by n cycles, executing due ticks and jumping
// over cycles where nothing is due.
func (e *Engine) Run(n int64) {
	if n <= 0 {
		return
	}
	e.pollAll()
	deadline := e.cycle + n
	for e.cycle < deadline {
		if !e.tryJump(deadline) {
			e.stepOnce()
		}
	}
}

// RunUntil advances until done() is true, checking after every executed
// cycle and after every jump. It returns ErrNonPositiveLimit without
// stepping when limit ≤ 0, and ErrCycleLimit (naming the still-busy
// components) if more than limit cycles elapse before done() holds.
func (e *Engine) RunUntil(done func() bool, limit int64) error {
	if limit <= 0 {
		return fmt.Errorf("%w: %d", ErrNonPositiveLimit, limit)
	}
	e.pollAll()
	start := e.cycle
	for !done() {
		if e.cycle-start >= limit {
			return e.limitErr(limit)
		}
		if !e.tryJump(start + limit) {
			e.stepOnce()
		}
	}
	return nil
}

// RunUntilIdle steps until every registered component that implements Idler
// reports Idle, checking after every cycle. It shares RunUntil's limit
// semantics and the IdleCount idle scan.
func (e *Engine) RunUntilIdle(limit int64) error {
	return e.RunUntil(e.allIdle, limit)
}

// Func adapts a function to the Component interface, for tests and small
// glue components.
type Func struct {
	ID string
	F  func(cycle int64)
}

// Name implements Component.
func (f Func) Name() string { return f.ID }

// Tick implements Component.
func (f Func) Tick(cycle int64) { f.F(cycle) }

// SchedFunc adapts a pair of functions to a scheduling component: F
// ticks, W reports the next wakeup. It is the Sleeper-aware analogue of
// Func for glue components that aggregate other parts' schedules.
type SchedFunc struct {
	ID string
	F  func(cycle int64)
	W  func(now int64) int64
}

// Name implements Component.
func (f SchedFunc) Name() string { return f.ID }

// Tick implements Component.
func (f SchedFunc) Tick(cycle int64) { f.F(cycle) }

// NextWakeup implements Sleeper.
func (f SchedFunc) NextWakeup(now int64) int64 { return f.W(now) }

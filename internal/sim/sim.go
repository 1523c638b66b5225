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
// cycle only the components that are due are visited and ticked, and when
// nothing at all is due the clock jumps straight to the earliest pending
// wake. Posts fewer than a horizon of cycles ahead sit in per-cycle due
// bitmaps, one bit per component, so an executed cycle costs its due
// components, not the machine; later posts wait in an overflow heap until
// the clock comes within the horizon of them.
//
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
// workload and removed (bench/history/PR16/NOTES.md);
// parallelism lives between runs, in internal/fleet.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// on the raw cycle count), since predicates are not evaluated on every
// skipped cycle.
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

// wheelSlots is the wheel's horizon H: a post for a cycle fewer than H
// cycles ahead sets the component's bit in the due bitmap of slot cycle &
// (H-1); a later one waits in the overflow heap. On cedarperf's engine
// workloads 98% of posts are fewer than 32 cycles ahead, and a wheel of
// 32 slots costs a machine of 39 components 256 bytes.
const wheelSlots = 32

// slotOf is the wheel slot of cycle t. The mask is taken in int64, so the
// narrowing keeps every bit it needs.
func slotOf(t int64) int { return int(t & (wheelSlots - 1)) }

// near reports whether a wake at cycle at (≥ the current cycle) is within
// the horizon, so it belongs in the wheel rather than the overflow heap.
func (e *Engine) near(at int64) bool { return at-e.cycle < wheelSlots }

// Engine drives a set of components with a shared clock.
//
// Its schedule is a hashed timing wheel (Varghese & Lauck, SOSP 1987)
// over the fixed tick order. entries[i].wake is the authoritative next
// wake of component i; the wheel and the heap are indexes over it:
//   - a finite wake fewer than wheelSlots cycles ahead has i's bit set in
//     its slot's bitmap, and a later one has i in the overflow heap (one
//     entry per component, updated in place);
//   - a bit is live only while wake[i] equals its slot's cycle, so a post
//     that a later Wake or re-arm superseded is dropped where it is found,
//     not hunted down when it goes stale;
//   - as the clock advances, heap entries that come within the horizon
//     move into the wheel.
//
// The tick pass visits the set bits of the current slot in index order,
// and a jump goes to the first occupied slot (or the heap's minimum)
// found from the map of occupied slots: neither reads a component that is
// not posted there. A cycle whose posts all turn out stale ticks nothing
// and counts as jumped, so FastForwarded stays exact.
type Engine struct {
	// entries holds the per-component state in index (tick) order, and the
	// overflow heap in its heap fields.
	entries []entry
	// idlers lists the components implementing Idler, cached at Register
	// time, so the idle scan does no per-cycle type assertions and
	// IdleCount and RunUntilIdle can never disagree about who is quiescent.
	idlers []Idler
	// wheel holds the due bitmaps word-major: the word for components
	// 64w … 64w+63 in slot s is wheel[w*wheelSlots+s], so registering
	// past a multiple of 64 appends a column and moves nothing.
	wheel []uint64
	// occ has bit s set while slot s may hold a post, live or stale.
	occ uint32
	// heapLen is the overflow heap's size: entries[k].heap for k <
	// heapLen, ordered by wake.
	heapLen int
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

// entry is one registered component's schedule.
type entry struct {
	c Component
	// s is c's Sleeper half, nil for plain components, which are re-posted
	// for the next cycle after every tick.
	s Sleeper
	// wake is the next cycle at which the component ticks: always at or
	// after the current cycle, Never for a Sleeper with nothing scheduled.
	wake int64
	// slot is the component's position in the overflow heap plus one, 0
	// while it is not there.
	slot int32
	// heap is the overflow heap's element at this index. The heap holds at
	// most one element per component, so it lives in the entries and grows
	// with them.
	heap int32
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
	return &Engine{}
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
//
// A plain component needs no check of its own: it is always posted for
// the earliest cycle it can execute, so no wake lowers it.
func (h Handle) Wake(at int64) {
	if h.e != nil && at < h.e.entries[h.idx].wake {
		h.e.post(h.idx, at)
	}
}

// post records at as component i's wake, clamped to the earliest cycle i
// can still execute — the current one while its turn in the pass is
// ahead, the next one once pos has reached it — and indexes it: a bit in
// the wheel when it is within the horizon, the overflow heap when it is
// beyond, nothing for Never. Whatever i posted before is left where it
// is: a wheel bit goes stale and is dropped when found, a heap element is
// moved or removed (postFar).
func (e *Engine) post(i int, at int64) {
	floor := e.cycle
	if e.inCycle && i <= e.pos {
		floor++
	}
	at = max(at, floor)
	en := &e.entries[i]
	en.wake = at
	if e.near(at) && en.slot == 0 {
		e.mark(i, at)
		return
	}
	e.postFar(i, at)
}

// mark sets component i's bit in the slot of cycle at.
func (e *Engine) mark(i int, at int64) {
	s := slotOf(at)
	e.wheel[(i>>6)*wheelSlots+s] |= 1 << (i & 63)
	e.occ |= 1 << s
}

// postFar is the rest of post: component i already in the heap, or a wake
// beyond the horizon, or Never.
func (e *Engine) postFar(i int, at int64) {
	far := at != Never && !e.near(at)
	if k := int(e.entries[i].slot) - 1; k >= 0 {
		if far {
			e.heapFix(k)
			return
		}
		e.heapRemove(i)
	}
	switch {
	case far:
		k := e.heapLen
		e.heapLen++
		e.heapSet(k, i)
		e.heapUp(k)
	case at != Never:
		e.mark(i, at)
	}
}

// migrate moves the overflow heap's elements that the clock has brought
// within the horizon into the wheel. It runs whenever the clock moves.
func (e *Engine) migrate() {
	for e.heapLen > 0 && e.near(e.heapWake(0)) {
		i := int(e.entries[0].heap)
		e.heapRemove(i)
		e.mark(i, e.entries[i].wake)
	}
}

// nextPost returns the earliest cycle anything is posted for: the first
// occupied slot, whose posts may all be stale, or else the overflow heap's
// minimum, or Never. A slot's posts are checked when the pass reaches it.
func (e *Engine) nextPost() int64 {
	if e.occ != 0 {
		return e.cycle + int64(bits.TrailingZeros32(bits.RotateLeft32(e.occ, -slotOf(e.cycle))))
	}
	if e.heapLen > 0 {
		return e.heapWake(0)
	}
	return Never
}

// heapSet places component i at heap position k.
func (e *Engine) heapSet(k, i int) {
	e.entries[k].heap = int32(i)
	e.entries[i].slot = int32(k + 1)
}

// heapWake is the wake of the component at heap position k.
func (e *Engine) heapWake(k int) int64 { return e.entries[e.entries[k].heap].wake }

// heapUp moves the element at position k towards the root while it wakes
// before its parent.
func (e *Engine) heapUp(k int) {
	i := int(e.entries[k].heap)
	for k > 0 {
		p := (k - 1) / 2
		if e.heapWake(p) <= e.entries[i].wake {
			break
		}
		e.heapSet(k, int(e.entries[p].heap))
		k = p
	}
	e.heapSet(k, i)
}

// heapDown moves the element at position k towards the leaves while a
// child wakes before it.
func (e *Engine) heapDown(k int) {
	i := int(e.entries[k].heap)
	for {
		c := 2*k + 1
		if c >= e.heapLen {
			break
		}
		if c+1 < e.heapLen && e.heapWake(c+1) < e.heapWake(c) {
			c++
		}
		if e.entries[i].wake <= e.heapWake(c) {
			break
		}
		e.heapSet(k, int(e.entries[c].heap))
		k = c
	}
	e.heapSet(k, i)
}

// heapFix restores the heap order around position k after its element's
// wake changed.
func (e *Engine) heapFix(k int) {
	i := e.entries[k].heap
	e.heapUp(k)
	e.heapDown(int(e.entries[i].slot) - 1)
}

// heapRemove takes component i out of the overflow heap.
func (e *Engine) heapRemove(i int) {
	k := int(e.entries[i].slot) - 1
	e.entries[i].slot = 0
	e.heapLen--
	if k == e.heapLen {
		return
	}
	e.heapSet(k, int(e.entries[e.heapLen].heap))
	e.heapFix(k)
}

// Register appends components to the tick order and returns their
// handles, one per component, for wake wiring. Newly registered
// components are due immediately; their first NextWakeup requery (at the
// next run entry) installs the real schedule, so registration order and
// wiring order never race. The engine's per-component state grows once
// per call, so registering a machine in one call costs its slices, not a
// doubling per component.
func (e *Engine) Register(cs ...Component) []Handle {
	hs := make([]Handle, len(cs))
	e.entries = slices.Grow(e.entries, len(cs))
	e.idlers = slices.Grow(e.idlers, len(cs))
	if cols := (len(e.entries) + len(cs) + 63) / 64 * wheelSlots; cols > len(e.wheel) {
		e.wheel = append(e.wheel, make([]uint64, cols-len(e.wheel))...)
	}
	for k, c := range cs {
		i := len(e.entries)
		if id, ok := c.(Idler); ok {
			e.idlers = append(e.idlers, id)
		}
		s, ok := c.(Sleeper)
		if !ok {
			e.plain++
		}
		e.entries = append(e.entries, entry{c: c, s: s})
		e.post(i, e.cycle)
		hs[k] = Handle{e: e, idx: i}
	}
	return hs
}

// pollAll re-queries every Sleeper's schedule against the current cycle.
// It runs at every public run entry point, so state changes made between
// runs — a controller assigned — are picked up
// without requiring the mutator to know about wakes. Such a change may
// raise a wake as well as lower it; the superseded post goes stale.
func (e *Engine) pollAll() {
	for i := range e.entries {
		if s := e.entries[i].s; s != nil {
			e.post(i, s.NextWakeup(e.cycle))
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
func (e *Engine) Components() int { return len(e.entries) }

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
	for _, en := range e.entries {
		if en.s == nil || en.s.NextWakeup(e.cycle) <= e.cycle {
			names = append(names, en.c.Name())
		}
	}
	return names
}

// allIdle is the termination predicate of RunUntilIdle: every registered
// component that implements Idler reports Idle.
func (e *Engine) allIdle() bool {
	for _, x := range e.idlers {
		if !x.Idle() {
			return false
		}
	}
	return true
}

// IdleCount returns how many registered components currently report Idle;
// components that do not implement Idler count as idle. It is a liveness
// gauge for the observability hub, and shares its scan with RunUntilIdle.
func (e *Engine) IdleCount() int {
	n := len(e.entries)
	for _, x := range e.idlers {
		if !x.Idle() {
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
	for _, en := range e.entries {
		if x, ok := en.c.(Idler); ok && !x.Idle() {
			if len(names) == busyNameCap {
				names = append(names, "...")
				break
			}
			names = append(names, en.c.Name())
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

// stepOnce executes the current cycle: it visits the set bits of the
// cycle's slot in index order and ticks each component whose wake is the
// cycle, dropping the stale posts among them, and reports whether any
// component ticked. A component that ticks is re-posted — a Sleeper at its
// requeried wake, a plain component at the next cycle; within the horizon
// that is one bit set, inline, since a component that ticked is not in the
// heap. Bits that a tick posts into the word being walked are merged in
// after it, so a producer ticking earlier in the pass can still hand a
// later consumer same-cycle work via Wake; a wake aimed at a component
// already passed lands on the next cycle (post). Plain and due components
// share the one Tick call site on purpose: with a second one the compiler
// spills the loop's registers on the skip path too (sparse runs measured
// 16% slower that way).
func (e *Engine) stepOnce() bool {
	c := e.cycle
	next := c + 1
	s := slotOf(c)
	ran := false
	e.inCycle = true
	for k, base := s, 0; k < len(e.wheel); k, base = k+wheelSlots, base+64 {
		w := e.wheel[k]
		e.wheel[k] = 0
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if e.entries[i].wake != c {
				continue
			}
			ran = true
			e.pos = i
			e.entries[i].c.Tick(c)
			at := next
			if sl := e.entries[i].s; sl != nil {
				at = max(sl.NextWakeup(next), next)
			}
			if e.near(at) {
				e.entries[i].wake = at
				e.mark(i, at)
			} else {
				e.post(i, at)
			}
			if more := e.wheel[k]; more != 0 {
				w |= more
				e.wheel[k] = 0
			}
		}
	}
	e.occ &^= 1 << s
	e.inCycle = false
	e.cycle = next
	e.migrate()
	return ran
}

// advance moves the clock past the current cycle toward deadline (beyond
// it): a jump to the first cycle anything is posted for when nothing is
// posted for this one, else the cycle's pass. Jumped cycles, and a cycle
// whose posts were all stale, are what FastForwarded counts: cycles in
// which nothing at all ran.
func (e *Engine) advance(deadline int64) {
	if e.plain == 0 {
		if t := e.nextPost(); t > e.cycle {
			t = min(t, deadline)
			e.skipped += t - e.cycle
			e.cycle = t
			e.migrate()
			return
		}
	}
	if !e.stepOnce() {
		e.skipped++
	}
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
		e.advance(deadline)
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
		e.advance(start + limit)
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

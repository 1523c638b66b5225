package sim

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// This file holds the hand-written scenarios that pin each branch of the
// wheel's wake path: where a wake may land (the executing cycle while the
// target's turn is ahead, the next one after), when it waits in the
// overflow heap (at or beyond the horizon) and when it moves into the
// wheel, and that a superseded post is dropped, never executed. Each event
// run checks the wheel's invariant from the inside (checkWheel) and that
// no cycle was executed for nobody. TestRandomWakeInterleavingsMatchStepped
// runs every scenario, so they sit behind the same -race gate as the
// seeded property test.

// msg is one wake an actor hands a peer while working its own schedule.
type msg struct {
	to int   // index of the receiving actor
	at int64 // the cycle passed to Handle.Wake, and when the item matures
	// poke sends the wake alone, with no inbox item: a spurious wake, which
	// must cost a no-op tick and nothing else.
	poke bool
	// cancel makes the receiver drop the rest of its own schedule when it
	// consumes the item — whatever wake it had posted for that work goes
	// stale and must never execute.
	cancel bool
}

// actorSpec is one scripted Sleeper, as pure data.
type actorSpec struct {
	own   []int64         // ascending cycles at which it has work of its own
	sends map[int64][]msg // wakes fired while working own cycle k
}

// wakeScenario is a component set, in registration order, plus the run
// entries that drive it.
type wakeScenario struct {
	name   string
	actors []actorSpec
	limits []int64 // one RunUntilIdle per entry; all but the last may hit the limit
	// cancelled lists the actors whose own work is dropped between the
	// first run entry and the second, raising their posted wake to Never.
	cancelled []int
	// late is how many of the last actors are registered between the
	// first run entry and the second instead of before the first.
	late int
}

var wakePathScenarios = []wakeScenario{
	{
		name: "next-cycle wake from an earlier component",
		actors: []actorSpec{
			{own: []int64{5}, sends: map[int64][]msg{5: {{to: 1, at: 6}}}},
			{own: []int64{90}},
		},
	},
	{
		name: "next-cycle and clamped current-cycle wakes from a later component",
		actors: []actorSpec{
			{own: []int64{90}},
			{own: []int64{120}},
			{own: []int64{5, 40}, sends: map[int64][]msg{5: {{to: 0, at: 6}}, 40: {{to: 1, at: 40}}}},
		},
	},
	{
		name: "current-cycle wake on a component not yet reached",
		actors: []actorSpec{
			{own: []int64{5}, sends: map[int64][]msg{5: {{to: 1, at: 5}, {to: 2, at: 3}}}},
			{own: []int64{70}},
			{},
		},
	},
	{
		name: "far wake pulled in to the next cycle does not resurrect",
		actors: []actorSpec{
			{own: []int64{10}, sends: map[int64][]msg{10: {{to: 1, at: 11, cancel: true}}}},
			{own: []int64{100, 150}},
			{own: []int64{300}},
		},
	},
	{
		name: "next-cycle wake pulled in to the executing cycle",
		actors: []actorSpec{
			{own: []int64{10}, sends: map[int64][]msg{10: {{to: 2, at: 11, poke: true}}}},
			{own: []int64{10}, sends: map[int64][]msg{10: {{to: 2, at: 10}}}},
			{},
			{own: []int64{200}},
		},
	},
	{
		name: "a later component's wakes on earlier ones land on the next cycle",
		actors: []actorSpec{
			{own: []int64{80}},
			{},
			{own: []int64{7, 20}, sends: map[int64][]msg{7: {{to: 0, at: 7}, {to: 1, at: 8}}, 20: {{to: 3, at: 20}}}},
			{},
		},
	},
	{
		name: "wake landing exactly on start+limit",
		actors: []actorSpec{
			{own: []int64{10, 49}, sends: map[int64][]msg{10: {{to: 1, at: 50}}, 49: {{to: 2, at: 50}}}},
			{},
			{},
		},
		limits: []int64{50, 1000},
	},
	{
		name: "jump immediately after a run of dense cycles",
		actors: []actorSpec{
			{own: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
			{own: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 400, 401, 900}},
		},
	},
	{
		name: "wake raised between two run entries",
		actors: []actorSpec{
			{own: []int64{5, 100}},
			{own: []int64{300}},
		},
		limits:    []int64{50, 1000},
		cancelled: []int{0},
	},
	{
		name: "a component's clamped wake on itself is overwritten by its re-arm",
		actors: []actorSpec{
			{own: []int64{5, 60}, sends: map[int64][]msg{5: {{to: 0, at: 3, poke: true}}}},
		},
	},
	{
		name: "a far wake lowered inside the horizon",
		actors: []actorSpec{
			{own: []int64{10}, sends: map[int64][]msg{10: {{to: 1, at: 30}}}},
			{own: []int64{5 * wheelSlots}},
			{own: []int64{3 * wheelSlots}, sends: map[int64][]msg{3 * wheelSlots: {{to: 1, at: 3*wheelSlots + 2}}}},
		},
	},
	{
		name: "a wake exactly on the horizon edge",
		actors: []actorSpec{
			{own: []int64{10}, sends: map[int64][]msg{10: {{to: 1, at: 10 + wheelSlots}, {to: 2, at: 10 + wheelSlots - 1}, {to: 3, at: 11 + wheelSlots}}}},
			{},
			{},
			{},
		},
	},
	{
		name: "a stale post alone in its slot",
		actors: []actorSpec{
			{own: []int64{40}},
			{own: []int64{5}, sends: map[int64][]msg{5: {{to: 0, at: 6, cancel: true}}}},
			{own: []int64{2 * wheelSlots}},
		},
	},
	{
		name: "Register after a run",
		actors: []actorSpec{
			{own: []int64{3, 2*wheelSlots + 7}, sends: map[int64][]msg{2*wheelSlots + 7: {{to: 1, at: 2*wheelSlots + 9}}}},
			{own: []int64{50, 4 * wheelSlots}},
		},
		limits: []int64{20, 2000},
		late:   1,
	},
}

// actor executes an actorSpec. Its Tick is a no-op unless own work or a
// matured inbox item is present, as the Sleeper contract requires.
type actor struct {
	id    string
	own   []int64
	sends map[int64][]msg
	inbox []msg
	ticks []int64 // effective ticks
	calls []int64 // every cycle the engine invoked Tick, effective or not
	// asked is the earliest cycle the actor has asked to tick at since its
	// last tick: its last NextWakeup answer, lowered by every wake aimed at
	// it. early lists the ticks the engine gave it before then — a post
	// that a later one superseded, executed anyway.
	asked int64
	early []int64
	env   *actorEnv
}

// actorEnv is what the actors of one run share.
type actorEnv struct {
	actors  []*actor
	handles []Handle
}

func (a *actor) Name() string { return a.id }
func (a *actor) Tick(c int64) {
	a.calls = append(a.calls, c)
	if c < a.asked {
		a.early = append(a.early, c)
	}
	worked := false
	for len(a.own) > 0 && a.own[0] <= c {
		k := a.own[0]
		a.own = a.own[1:]
		worked = true
		for _, m := range a.sends[k] {
			to := a.env.actors[m.to]
			if !m.poke {
				to.inbox = append(to.inbox, m)
			}
			to.asked = min(to.asked, m.at)
			a.env.handles[m.to].Wake(m.at)
		}
	}
	keep := a.inbox[:0]
	for _, m := range a.inbox {
		switch {
		case m.at > c:
			keep = append(keep, m)
		case m.cancel:
			a.own = nil
			fallthrough
		default:
			worked = true
		}
	}
	a.inbox = keep
	if worked {
		a.ticks = append(a.ticks, c)
	}
	a.asked = Never // until the engine asks again; a wake it sent itself is overwritten too
}
func (a *actor) Idle() bool { return len(a.own) == 0 && len(a.inbox) == 0 }
func (a *actor) NextWakeup(now int64) int64 {
	w := Never
	if len(a.own) > 0 {
		w = a.own[0]
	}
	for _, m := range a.inbox {
		if m.at < w {
			w = m.at
		}
	}
	a.asked = max(w, now)
	return a.asked
}

// checkWheel asserts the wheel's invariant between tick passes: every
// finite wake[i] can be found at exactly that cycle — i's bit in the
// cycle's slot (and the slot marked occupied) when it is within the
// horizon, i in the overflow heap, in heap order, when it is beyond — no
// wake lies in the past, the first live post is for min(wake) (Never when
// nothing is posted) and a jump cannot pass it.
func checkWheel(t *testing.T, e *Engine, where string) {
	t.Helper()
	want, inHeap := Never, 0
	for i, en := range e.entries {
		want = min(want, en.wake)
		s := int(en.wake) & (wheelSlots - 1)
		switch {
		case en.wake < e.cycle:
			t.Errorf("%s: at cycle %d component %d wakes in the past, at %d", where, e.cycle, i, en.wake)
		case en.wake == Never:
			if en.slot != 0 {
				t.Errorf("%s: component %d sleeps for good but holds heap slot %d", where, i, en.slot)
			}
		case en.wake-e.cycle < wheelSlots:
			if e.wheel[(i>>6)*wheelSlots+s]&(1<<(i&63)) == 0 || e.occ&(1<<s) == 0 {
				t.Errorf("%s: at cycle %d component %d wakes at %d but is not posted in slot %d (occ %b)", where, e.cycle, i, en.wake, s, e.occ)
			}
			if en.slot != 0 {
				t.Errorf("%s: component %d wakes within the horizon but holds heap slot %d", where, i, en.slot)
			}
		default:
			inHeap++
			if en.slot == 0 || int(e.entries[en.slot-1].heap) != i {
				t.Errorf("%s: at cycle %d component %d wakes at %d, beyond the horizon, but is not in the heap", where, e.cycle, i, en.wake)
			}
		}
	}
	if inHeap != e.heapLen {
		t.Errorf("%s: %d components wake beyond the horizon, the heap holds %d", where, inHeap, e.heapLen)
	}
	for k := 1; k < e.heapLen; k++ {
		if e.heapWake((k-1)/2) > e.heapWake(k) {
			t.Errorf("%s: heap position %d wakes at %d, before its parent's %d", where, k, e.heapWake(k), e.heapWake((k-1)/2))
		}
	}
	for k, w := range e.wheel {
		if s := k % wheelSlots; w != 0 && e.occ&(1<<s) == 0 {
			t.Errorf("%s: slot %d holds posts but is not marked occupied", where, s)
		}
	}
	if got := liveNext(e); got != want {
		t.Errorf("%s: at cycle %d the first live post is for cycle %d, min(wake) = %d", where, e.cycle, got, want)
	}
	if got := e.nextPost(); got > want {
		t.Errorf("%s: at cycle %d the next post is for cycle %d, after min(wake) = %d", where, e.cycle, got, want)
	}
}

// liveNext is the next due cycle as the wheel holds it: the first cycle
// within the horizon with a live post (a bit whose component wakes at the
// slot's cycle), else the overflow heap's minimum, else Never.
func liveNext(e *Engine) int64 {
	for t := e.cycle; t < e.cycle+wheelSlots; t++ {
		for k, base := slotOf(t), 0; k < len(e.wheel); k, base = k+wheelSlots, base+64 {
			for w := e.wheel[k]; w != 0; w &= w - 1 {
				if e.entries[base+bits.TrailingZeros64(w)].wake == t {
					return t
				}
			}
		}
	}
	if e.heapLen > 0 {
		return e.heapWake(0)
	}
	return Never
}

// runWakeScenario executes one scenario and returns its run log: every
// actor's effective ticks, then cycle, jump count and error per run
// entry. On an event-wheel run it also checks the wheel from the inside:
// checkWheel after every run entry, no actor ticked before the cycle it
// asked for, and the executed cycles are exactly those in which some Tick
// ran — a cycle executed for nobody is as wrong as one skipped over work.
func runWakeScenario(t *testing.T, sc wakeScenario, stepped bool) string {
	t.Helper()
	e := New()
	env := &actorEnv{}
	for i, sp := range sc.actors {
		env.actors = append(env.actors, &actor{id: fmt.Sprintf("a%d", i), own: append([]int64(nil), sp.own...), sends: sp.sends, env: env})
	}
	register := func(as []*actor) {
		for _, a := range as {
			var c Component = a
			if stepped {
				c = Plain(a)
			}
			env.handles = append(env.handles, e.Register(c)[0])
		}
	}
	early := len(env.actors) - sc.late
	register(env.actors[:early])
	limits := sc.limits
	if limits == nil {
		limits = []int64{2000}
	}
	var b strings.Builder
	for k, limit := range limits {
		if k == 1 {
			for _, i := range sc.cancelled {
				env.actors[i].own = nil
			}
			register(env.actors[early:])
		}
		err := e.RunUntilIdle(limit)
		checkWheel(t, e, sc.name)
		fmt.Fprintf(&b, "cycle:%d limit-hit:%v\n", e.Cycle(), err != nil)
	}
	for _, a := range env.actors {
		fmt.Fprintf(&b, "%s:%v\n", a.id, a.ticks)
	}
	if stepped {
		if e.FastForwarded() != 0 {
			t.Errorf("%s: stepped run jumped %d cycles", sc.name, e.FastForwarded())
		}
		return b.String()
	}
	called := map[int64]bool{}
	for _, a := range env.actors {
		for _, c := range a.calls {
			called[c] = true
		}
		if len(a.early) > 0 {
			t.Errorf("%s: %s ticked at %v, before the cycle it had asked for", sc.name, a.id, a.early)
		}
	}
	if executed := e.Cycle() - e.FastForwarded(); executed != int64(len(called)) {
		t.Errorf("%s: %d cycles executed but Ticks ran in %d: FastForwarded()=%d is off",
			sc.name, executed, len(called), e.FastForwarded())
	}
	return b.String()
}

// checkWakeScenarios runs every scenario stepped (the reference) and on
// the event wheel.
func checkWakeScenarios(t *testing.T) {
	t.Helper()
	for _, sc := range wakePathScenarios {
		want := runWakeScenario(t, sc, true)
		if got := runWakeScenario(t, sc, false); got != want {
			t.Errorf("%s: event run diverges from stepped\nevent:\n%s\nstepped:\n%s", sc.name, got, want)
		}
	}
}

// denseEngine builds an all-Sleeper engine of 8 components, component i
// re-arming gap(i) cycles out (0 = always due).
func denseEngine(gap func(i int) int64) *Engine {
	e := New()
	for i := 0; i < 8; i++ {
		g := gap(i)
		e.Register(SchedFunc{ID: fmt.Sprintf("s%d", i), F: func(int64) {}, W: func(now int64) int64 { return now + g }})
	}
	return e
}

// TestSteadyStateAllocsEngineRun is the runtime allocation gate on the
// tick path: Engine.Run over always-due Sleepers must not allocate, and
// neither may one whose Sleepers re-arm up to three horizons out, so that
// wakes pass through the overflow heap and back into the wheel.
func TestSteadyStateAllocsEngineRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  func(i int) int64
	}{
		{"dense", func(int) int64 { return 0 }},
		{"far", func(i int) int64 { return int64(i) * wheelSlots * 3 / 7 }},
	} {
		e := denseEngine(tc.gap)
		e.Run(100)
		if avg := testing.AllocsPerRun(20, func() { e.Run(500) }); avg != 0 {
			t.Errorf("%s: Engine.Run allocates %.1f times per 500 cycles, want 0", tc.name, avg)
		}
	}
}

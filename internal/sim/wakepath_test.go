package sim

import (
	"fmt"
	"strings"
	"testing"
)

// This file holds the hand-written scenarios that pin each branch of the
// wheel's wake path: where a wake may land (the executing cycle while the
// target's turn is ahead, the next one after), and which of those the
// pass, not setWake, folds into soonest. Each event run checks the
// invariant soonest == min(wake) from the inside and that no cycle was
// executed for nobody. TestRandomWakeInterleavingsMatchStepped runs
// every scenario, so they sit behind the same -race gate as the seeded
// property test.

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
	worked := false
	for len(a.own) > 0 && a.own[0] <= c {
		k := a.own[0]
		a.own = a.own[1:]
		worked = true
		for _, m := range a.sends[k] {
			if !m.poke {
				to := a.env.actors[m.to]
				to.inbox = append(to.inbox, m)
			}
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
	if w < now {
		return now
	}
	return w
}

// checkSoonest asserts the wheel's invariant between tick passes: soonest
// is the minimum of wake over the Sleepers, Never when there are none.
func checkSoonest(t *testing.T, e *Engine, where string) {
	t.Helper()
	want := Never
	for i, s := range e.sched {
		if s != nil {
			want = min(want, e.wake[i])
		}
	}
	if e.soonest != want {
		t.Errorf("%s: at cycle %d soonest = %d, min(wake) = %d (wake %v)", where, e.cycle, e.soonest, want, e.wake)
	}
}

// runWakeScenario executes one scenario and returns its run log: every
// actor's effective ticks, then cycle, jump count and error per run
// entry. On an event-wheel run it also checks the wheel from the inside:
// soonest == min(wake) after every run entry, and the executed cycles are
// exactly those in which some Tick ran — a cycle executed for nobody is
// as wrong as one skipped over work.
func runWakeScenario(t *testing.T, sc wakeScenario, stepped bool) string {
	t.Helper()
	e := New()
	env := &actorEnv{}
	for i, sp := range sc.actors {
		a := &actor{id: fmt.Sprintf("a%d", i), own: append([]int64(nil), sp.own...), sends: sp.sends, env: env}
		env.actors = append(env.actors, a)
		var c Component = a
		if stepped {
			c = Plain(a)
		}
		env.handles = append(env.handles, e.Register(c)[0])
	}
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
		}
		err := e.RunUntilIdle(limit)
		checkSoonest(t, e, sc.name)
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
// tick path: Engine.Run over always-due Sleepers must not allocate.
func TestSteadyStateAllocsEngineRun(t *testing.T) {
	e := denseEngine(func(int) int64 { return 0 })
	e.Run(100)
	if avg := testing.AllocsPerRun(20, func() { e.Run(500) }); avg != 0 {
		t.Errorf("Engine.Run allocates %.1f times per 500 dense cycles, want 0", avg)
	}
}

package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestStepIncrementsCycle(t *testing.T) {
	e := New()
	if e.Cycle() != 0 {
		t.Fatalf("new engine cycle = %d, want 0", e.Cycle())
	}
	e.Step()
	e.Step()
	if e.Cycle() != 2 {
		t.Fatalf("cycle after two steps = %d, want 2", e.Cycle())
	}
}

func TestTickOrderAndCycleValue(t *testing.T) {
	e := New()
	var order []string
	var seen []int64
	mk := func(id string) Func {
		return Func{ID: id, F: func(c int64) {
			order = append(order, id)
			seen = append(seen, c)
		}}
	}
	e.Register(mk("a"), mk("b"))
	e.Register(mk("c"))
	e.Run(2)

	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("tick %d = %q, want %q", i, order[i], want[i])
		}
	}
	for i, c := range seen {
		if wantC := int64(i / 3); c != wantC {
			t.Errorf("tick %d saw cycle %d, want %d", i, c, wantC)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	e.Register(Func{ID: "counter", F: func(int64) { count++ }})
	if err := e.RunUntil(func() bool { return count >= 5 }, 100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Cycle() != 5 {
		t.Errorf("cycle = %d, want 5", e.Cycle())
	}
}

func TestRunUntilLimit(t *testing.T) {
	e := New()
	err := e.RunUntil(func() bool { return false }, 10)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if e.Cycle() != 10 {
		t.Errorf("cycle = %d, want 10", e.Cycle())
	}
}

type idleAfter struct {
	n    int64
	tick int64
}

func (i *idleAfter) Name() string     { return "idleAfter" }
func (i *idleAfter) Tick(cycle int64) { i.tick = cycle + 1 }
func (i *idleAfter) Idle() bool       { return i.tick >= i.n }

func TestRunUntilIdle(t *testing.T) {
	e := New()
	e.Register(&idleAfter{n: 7}, &idleAfter{n: 3})
	if err := e.RunUntilIdle(100); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if e.Cycle() != 7 {
		t.Errorf("cycle = %d, want 7 (slowest component)", e.Cycle())
	}
}

func TestRunUntilIdleLimit(t *testing.T) {
	e := New()
	e.Register(&idleAfter{n: 1 << 40})
	if err := e.RunUntilIdle(5); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestComponentsCount(t *testing.T) {
	e := New()
	e.Register(Func{ID: "x", F: func(int64) {}})
	if e.Components() != 1 {
		t.Errorf("Components() = %d, want 1", e.Components())
	}
}

func TestRunUntilNonPositiveLimit(t *testing.T) {
	for _, limit := range []int64{0, -1, -100} {
		e := New()
		ticked := false
		e.Register(Func{ID: "x", F: func(int64) { ticked = true }})
		err := e.RunUntil(func() bool { return true }, limit)
		if !errors.Is(err, ErrNonPositiveLimit) {
			t.Fatalf("limit %d: err = %v, want ErrNonPositiveLimit", limit, err)
		}
		if errors.Is(err, ErrCycleLimit) {
			t.Errorf("limit %d: non-positive limit must be distinct from ErrCycleLimit", limit)
		}
		if ticked || e.Cycle() != 0 {
			t.Errorf("limit %d: engine stepped (cycle %d) on a rejected limit", limit, e.Cycle())
		}
	}
}

func TestRunUntilIdleNonPositiveLimit(t *testing.T) {
	e := New()
	e.Register(&idleAfter{n: 5})
	if err := e.RunUntilIdle(0); !errors.Is(err, ErrNonPositiveLimit) {
		t.Fatalf("err = %v, want ErrNonPositiveLimit", err)
	}
	if e.Cycle() != 0 {
		t.Errorf("cycle = %d, want 0 (no stepping on rejected limit)", e.Cycle())
	}
}

func TestCycleLimitNamesBusyComponents(t *testing.T) {
	e := New()
	e.Register(&idleAfter{n: 1 << 40}, Func{ID: "glue", F: func(int64) {}})
	err := e.RunUntilIdle(5)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if !strings.Contains(err.Error(), "idleAfter") {
		t.Errorf("cycle-limit error %q does not name the busy component", err)
	}
	if strings.Contains(err.Error(), "glue") {
		t.Errorf("cycle-limit error %q names a non-Idler component as busy", err)
	}
}

func TestIdleCountSharesScanWithRunUntilIdle(t *testing.T) {
	e := New()
	busy := &idleAfter{n: 3}
	e.Register(busy, Func{ID: "glue", F: func(int64) {}})
	// Non-Idler components count as idle; the Idler is initially busy.
	if got := e.IdleCount(); got != 1 {
		t.Fatalf("IdleCount before run = %d, want 1", got)
	}
	if err := e.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got := e.IdleCount(); got != e.Components() {
		t.Errorf("IdleCount after RunUntilIdle = %d, want %d (the same scan must agree)",
			got, e.Components())
	}
}

// periodic is a Sleeper: it does work only on multiples of period, and is
// idle once it has recorded enough effective ticks.
type periodic struct {
	id     string
	period int64
	want   int
	ticks  []int64
}

func (p *periodic) Name() string { return p.id }
func (p *periodic) Tick(cycle int64) {
	if cycle%p.period == 0 {
		p.ticks = append(p.ticks, cycle)
	}
}
func (p *periodic) Idle() bool { return len(p.ticks) >= p.want }
func (p *periodic) NextWakeup(now int64) int64 {
	if now%p.period == 0 {
		return now
	}
	return now - now%p.period + p.period
}

func TestFastForwardMatchesSteppedRun(t *testing.T) {
	run := func(fastForward bool) (*periodic, *periodic, *Engine) {
		a := &periodic{id: "a", period: 10, want: 4}
		b := &periodic{id: "b", period: 15, want: 3}
		e := New()
		if fastForward {
			e.Register(a, b)
		} else {
			e.Register(Plain(a), Plain(b))
		}
		if err := e.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
		return a, b, e
	}
	fa, fb, fe := run(true)
	sa, sb, se := run(false)
	if fe.FastForwarded() == 0 {
		t.Error("all-Sleeper engine skipped no cycles")
	}
	if se.FastForwarded() != 0 {
		t.Error("non-Sleeper engine fast-forwarded")
	}
	if fe.Cycle() != se.Cycle() {
		t.Errorf("fast-forwarded run ended at cycle %d, stepped run at %d", fe.Cycle(), se.Cycle())
	}
	for _, pair := range [][2]*periodic{{fa, sa}, {fb, sb}} {
		f, s := pair[0], pair[1]
		if len(f.ticks) != len(s.ticks) {
			t.Fatalf("%s: %d effective ticks fast-forwarded vs %d stepped", f.id, len(f.ticks), len(s.ticks))
		}
		for i := range f.ticks {
			if f.ticks[i] != s.ticks[i] {
				t.Errorf("%s tick %d at cycle %d, stepped run at %d", f.id, i, f.ticks[i], s.ticks[i])
			}
		}
	}
}

// TestPlainHidesSleeper: Plain is the whole of the stepped schedule. An
// engine of Plain-wrapped Sleepers ticks every component every cycle,
// never asks for a wakeup, never jumps, treats Wake as a no-op, and still
// ends RunUntilIdle where the wrapped components report Idle.
func TestPlainHidesSleeper(t *testing.T) {
	w := &wakeOnce{id: "wake", at: 40}
	ticks := 0
	napper := SchedFunc{ID: "napper", F: func(int64) { ticks++ }, W: func(int64) int64 {
		t.Error("NextWakeup asked of a Plain component")
		return Never
	}}
	if _, ok := Plain(w).(Sleeper); ok {
		t.Fatal("Plain(w) still implements Sleeper")
	}
	if _, ok := Plain(napper).(Idler); ok {
		t.Fatal("Plain of a non-Idler implements Idler")
	}

	e := New()
	hs := e.Register(Plain(w), Plain(napper))
	hs[0].Wake(3)
	hs[1].Wake(1 << 20)
	if e.soonest != Never || e.wake[0] != 0 || e.wake[1] != 0 {
		t.Errorf("Wake on Plain components left a mark: soonest %d, wake %v", e.soonest, e.wake)
	}
	if got := e.AwakeComponents(); len(got) != 2 {
		t.Errorf("AwakeComponents = %v, want both (plain components are always awake)", got)
	}
	if err := e.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 41 || e.FastForwarded() != 0 {
		t.Errorf("ended at cycle %d having jumped %d, want 41 and 0", e.Cycle(), e.FastForwarded())
	}
	if ticks != 41 {
		t.Errorf("napper ticked %d times in 41 cycles, want every cycle", ticks)
	}
	if len(w.ticks) != 1 || w.ticks[0] != 40 {
		t.Errorf("effective ticks %v, want [40]", w.ticks)
	}
}

func TestFastForwardRequiresEveryComponent(t *testing.T) {
	a := &periodic{id: "a", period: 10, want: 2}
	e := New()
	e.Register(a, Func{ID: "plain", F: func(int64) {}})
	if err := e.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if e.FastForwarded() != 0 {
		t.Errorf("engine with a non-Sleeper component skipped %d cycles", e.FastForwarded())
	}
}

func TestFastForwardRespectsLimit(t *testing.T) {
	a := &periodic{id: "a", period: 1 << 30, want: 2}
	e := New()
	e.Register(a)
	err := e.RunUntilIdle(50)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if e.Cycle() != 50 {
		t.Errorf("cycle = %d, want 50 (fast-forward must clamp to the limit)", e.Cycle())
	}
}

// wakeOnce is a Sleeper with exactly one effective tick, at cycle at.
// It is the minimal probe for the fast-forward/limit boundary: whether
// a wake landing on, just before, or just after the RunUntil deadline
// behaves identically to a stepped run.
type wakeOnce struct {
	id    string
	at    int64
	fired bool
	ticks []int64
}

func (w *wakeOnce) Name() string { return w.id }
func (w *wakeOnce) Tick(cycle int64) {
	if cycle == w.at {
		w.fired = true
		w.ticks = append(w.ticks, cycle)
	}
}
func (w *wakeOnce) Idle() bool { return w.fired }
func (w *wakeOnce) NextWakeup(now int64) int64 {
	if w.fired || now >= w.at {
		return now
	}
	return w.at
}

// TestFastForwardWakeOnLimitBoundary pins the boundary semantics of the
// fast-forward clamp: a wakeup exactly at the deadline (or past it) must
// time out at exactly the limit, and a wakeup one cycle inside must
// complete — in both cases agreeing with the stepped run cycle for
// cycle.
func TestFastForwardWakeOnLimitBoundary(t *testing.T) {
	const limit = 50
	cases := []struct {
		name     string
		wake     int64
		wantErr  bool
		wantTick bool
	}{
		// The deadline cycle itself is never executed: RunUntil checks
		// the budget before stepping, so a wake at start+limit times out.
		{"wake exactly on limit", limit, true, false},
		{"wake one inside limit", limit - 1, false, true},
		{"wake one past limit", limit + 1, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fastForward bool) (*wakeOnce, *Engine, error) {
				w := &wakeOnce{id: "wake", at: tc.wake}
				e := New()
				if fastForward {
					e.Register(w)
				} else {
					e.Register(Plain(w))
				}
				return w, e, e.RunUntilIdle(limit)
			}
			fw, fe, ferr := run(true)
			sw, se, serr := run(false)

			if gotErr := errors.Is(ferr, ErrCycleLimit); gotErr != tc.wantErr {
				t.Fatalf("fast-forwarded: err = %v, want cycle-limit %v", ferr, tc.wantErr)
			}
			if gotErr := errors.Is(serr, ErrCycleLimit); gotErr != tc.wantErr {
				t.Fatalf("stepped: err = %v, want cycle-limit %v", serr, tc.wantErr)
			}
			if fe.Cycle() != se.Cycle() {
				t.Errorf("fast-forwarded ended at cycle %d, stepped at %d", fe.Cycle(), se.Cycle())
			}
			wantCycle := int64(limit)
			if !tc.wantErr {
				wantCycle = tc.wake + 1 // the effective tick's cycle completes
			}
			if fe.Cycle() != wantCycle {
				t.Errorf("ended at cycle %d, want %d", fe.Cycle(), wantCycle)
			}
			if fw.fired != tc.wantTick || sw.fired != tc.wantTick {
				t.Errorf("fired: fast-forwarded %v, stepped %v, want %v", fw.fired, sw.fired, tc.wantTick)
			}
			if tc.wantTick && (len(fw.ticks) != 1 || fw.ticks[0] != tc.wake) {
				t.Errorf("effective ticks %v, want exactly [%d]", fw.ticks, tc.wake)
			}
			if tc.wake >= limit && fe.FastForwarded() != limit {
				// The clamp must deliver the engine to the deadline in one
				// skip, not overshoot it.
				t.Errorf("fast-forwarded %d cycles, want %d (clamped to deadline)", fe.FastForwarded(), limit)
			}
		})
	}
}

// TestFastForwardedAcrossReentry pins the skipped-cycle accounting when
// RunUntil is re-entered mid-run and a wake lands exactly on the
// re-entered deadline (start+limit). The seam this guards: each RunUntil
// computes its deadline from its own start cycle, and tryJump clamps to
// that deadline, so FastForwarded must accumulate exactly the cycles no
// tick ran — never double-counting a deadline cycle across re-entries
// and never overshooting a clamp.
func TestFastForwardedAcrossReentry(t *testing.T) {
	w := &wakeOnce{id: "wake", at: 100}
	e := New()
	e.Register(w)

	// First entry times out well before the wake: one clamped jump 0→30.
	if err := e.RunUntilIdle(30); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("first entry: err = %v, want ErrCycleLimit", err)
	}
	if e.Cycle() != 30 || e.FastForwarded() != 30 {
		t.Fatalf("first entry: cycle %d / skipped %d, want 30 / 30", e.Cycle(), e.FastForwarded())
	}

	// Re-entry with the wake exactly on start+limit (30+70): the deadline
	// cycle is never executed, so the run times out, the component must
	// not fire, and every cycle of this window was skipped.
	if err := e.RunUntilIdle(70); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("re-entry: err = %v, want ErrCycleLimit", err)
	}
	if w.fired {
		t.Error("re-entry: component fired on the deadline cycle, which must not execute")
	}
	if e.Cycle() != 100 || e.FastForwarded() != 100 {
		t.Errorf("re-entry: cycle %d / skipped %d, want 100 / 100", e.Cycle(), e.FastForwarded())
	}

	// Third entry starts on the wake cycle itself: the tick executes, so
	// cycle 100 counts as executed and the skip total must not grow.
	if err := e.RunUntilIdle(10); err != nil {
		t.Fatalf("third entry: %v", err)
	}
	if !w.fired || len(w.ticks) != 1 || w.ticks[0] != 100 {
		t.Errorf("third entry: ticks = %v, want [100]", w.ticks)
	}
	if e.Cycle() != 101 || e.FastForwarded() != 100 {
		t.Errorf("third entry: cycle %d / skipped %d, want 101 / 100", e.Cycle(), e.FastForwarded())
	}

	// The stepped twin of the same three-entry schedule agrees on every
	// cycle count and never fast-forwards.
	sw := &wakeOnce{id: "wake", at: 100}
	se := New()
	se.Register(Plain(sw))
	if err := se.RunUntilIdle(30); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("stepped first entry: %v", err)
	}
	if err := se.RunUntilIdle(70); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("stepped re-entry: %v", err)
	}
	if err := se.RunUntilIdle(10); err != nil {
		t.Fatalf("stepped third entry: %v", err)
	}
	if se.Cycle() != e.Cycle() || sw.fired != w.fired {
		t.Errorf("stepped twin ended at cycle %d (fired %v), fast-forwarded at %d (fired %v)",
			se.Cycle(), sw.fired, e.Cycle(), w.fired)
	}
	if se.FastForwarded() != 0 {
		t.Errorf("stepped twin skipped %d cycles, want 0", se.FastForwarded())
	}
}

// TestFastForwardWakeBoundaryMidRun repeats the boundary check with a
// non-zero start cycle, so the deadline arithmetic (start+limit, not
// absolute limit) is what is actually pinned.
func TestFastForwardWakeBoundaryMidRun(t *testing.T) {
	const warmup, limit = 7, 20
	mk := func(wake int64) (*wakeOnce, *Engine) {
		w := &wakeOnce{id: "wake", at: wake}
		e := New()
		e.Register(w)
		e.Run(warmup) // the wake is still ahead; these are no-op ticks
		return w, e
	}

	// Wake at start+limit: times out at exactly start+limit.
	w, e := mk(warmup + limit)
	if err := e.RunUntilIdle(limit); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if e.Cycle() != warmup+limit {
		t.Errorf("cycle = %d, want %d", e.Cycle(), warmup+limit)
	}
	if w.fired {
		t.Error("component fired on the deadline cycle, which must not execute")
	}

	// Wake at start+limit-1: completes with the tick on its exact cycle.
	w, e = mk(warmup + limit - 1)
	if err := e.RunUntilIdle(limit); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if !w.fired || len(w.ticks) != 1 || w.ticks[0] != warmup+limit-1 {
		t.Errorf("ticks = %v, want [%d]", w.ticks, warmup+limit-1)
	}
	if e.Cycle() != warmup+limit {
		t.Errorf("cycle = %d, want %d", e.Cycle(), warmup+limit)
	}
}

// TestRegisterShardContract pins the three names kept for the frozen
// cmd/cedarperf seam to doing nothing of their own, so they cannot grow
// behaviour back: SetShards leaves Shards at 1, and an engine wired
// through RegisterShard is the engine Register builds — same handles,
// same tick order, same jumps.
func TestRegisterShardContract(t *testing.T) {
	SetShards(2)
	if got := Shards(); got != 1 {
		t.Fatalf("Shards() = %d after SetShards(2), want 1", got)
	}
	build := func(viaShim bool) (log []string, hs []Handle, e *Engine) {
		e = New()
		var cs []Component
		for i, period := range []int64{3, 7, 7, 50, 11} {
			p := &periodic{id: string(rune('a' + i)), period: period, want: 6}
			cs = append(cs, SchedFunc{ID: p.id, W: p.NextWakeup, F: func(c int64) {
				if c%p.period == 0 {
					log = append(log, p.id)
				}
			}})
		}
		if viaShim {
			hs = append(hs, e.RegisterShard(0, cs[:2]...)...)
			hs = append(hs, e.RegisterShard(1, cs[2:4]...)...)
			hs = append(hs, e.Register(cs[4:]...)...)
		} else {
			hs = e.Register(cs...)
		}
		e.Run(400)
		return log, hs, e
	}
	wantLog, wantHs, want := build(false)
	gotLog, gotHs, got := build(true)
	if strings.Join(gotLog, "") != strings.Join(wantLog, "") {
		t.Errorf("tick order via RegisterShard differs from Register:\n got %v\nwant %v", gotLog, wantLog)
	}
	for i := range wantHs {
		if gotHs[i].idx != wantHs[i].idx || gotHs[i].e != got {
			t.Errorf("handle %d = {%p %d}, want {%p %d}", i, gotHs[i].e, gotHs[i].idx, got, wantHs[i].idx)
		}
	}
	if got.FastForwarded() != want.FastForwarded() || got.Cycle() != want.Cycle() || want.FastForwarded() == 0 {
		t.Errorf("cycle/jumped = %d/%d via RegisterShard, %d/%d via Register (jumps must be nonzero)",
			got.Cycle(), got.FastForwarded(), want.Cycle(), want.FastForwarded())
	}
}

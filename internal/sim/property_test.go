package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the property gate on the event wheel: for randomly
// generated component mixes — periodic sleepers, one-shot wakes, plain
// (never-sleeping) components, and pokers that fire spurious Handle.Wake
// calls at random targets and offsets — the engine must produce a
// byte-identical run log to the pure stepped schedule. Scenario
// generation is seeded, so a failure prints a seed that reproduces it.

// pokerSpec describes one spurious-wake emitter: a periodic component
// that, on each of its effective ticks, wakes a random co-registered
// component at a random future (or past, to exercise the clamp) cycle.
type pokerSpec struct {
	period int64
	want   int
	seed   int64
}

// scenario is pure data, so the stepped and event runs instantiate
// identical component sets.
type scenario struct {
	seed      int64       // names the scenario in failure messages
	periodics []periodic  // values copied per run
	onces     []int64     // wakeOnce cycles
	pokers    []pokerSpec // spurious-wake emitters
	plain     int         // how many periodics lose their Sleeper half
}

// poker emits the spurious wakes. Draws happen only on period multiples
// while more pokes are owed, so the stepped and event runs consume the
// same pseudo-random sequence whenever their tick schedules agree —
// which is exactly the property under test.
type poker struct {
	id      string
	period  int64
	want    int
	rng     *rand.Rand
	targets []Handle
	ticks   []int64
}

func (p *poker) Name() string { return p.id }
func (p *poker) Tick(cycle int64) {
	if cycle%p.period != 0 || len(p.ticks) >= p.want {
		return
	}
	p.ticks = append(p.ticks, cycle)
	if len(p.targets) > 0 {
		h := p.targets[p.rng.Intn(len(p.targets))]
		// Offsets reach one cycle into the past on purpose: a wake at or
		// before the current cycle must clamp, never rewind.
		h.Wake(cycle - 1 + int64(p.rng.Intn(30)))
	}
}
func (p *poker) Idle() bool { return len(p.ticks) >= p.want }
func (p *poker) NextWakeup(now int64) int64 {
	if len(p.ticks) >= p.want {
		return Never
	}
	if now%p.period == 0 {
		return now
	}
	return now - now%p.period + p.period
}

// runScenario executes one scenario and returns its full run log:
// every component's effective-tick cycles, the end cycle, and the error.
func runScenario(t *testing.T, sc scenario, stepped bool) string {
	t.Helper()
	e := New()
	// The stepped reference is the same engine with every component's
	// Sleeper half hidden.
	register := func(c Component, plain bool) Handle {
		if stepped || plain {
			c = Plain(c)
		}
		return e.Register(c)[0]
	}

	var logs []func() string
	var handles []Handle
	for i := range sc.periodics {
		p := sc.periodics[i] // copy
		handles = append(handles, register(&p, i < sc.plain))
		logs = append(logs, func() string { return fmt.Sprintf("%s:%v", p.id, p.ticks) })
	}
	for i, at := range sc.onces {
		w := &wakeOnce{id: fmt.Sprintf("once%d", i), at: at}
		handles = append(handles, register(w, false))
		logs = append(logs, func() string { return fmt.Sprintf("%s:%v", w.id, w.ticks) })
	}
	for i, ps := range sc.pokers {
		pk := &poker{
			id:      fmt.Sprintf("poker%d", i),
			period:  ps.period,
			want:    ps.want,
			rng:     rand.New(rand.NewSource(ps.seed)),
			targets: handles,
		}
		register(pk, false)
		logs = append(logs, func() string { return fmt.Sprintf("%s:%v", pk.id, pk.ticks) })
	}

	err := e.RunUntilIdle(5000)
	checkSoonest(t, e, fmt.Sprintf("seed %d", sc.seed))
	var b strings.Builder
	for _, f := range logs {
		b.WriteString(f())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "cycle:%d skipped>=0:%v err:%v\n", e.Cycle(), e.FastForwarded() >= 0, err)
	return b.String()
}

// TestRandomWakeInterleavingsMatchStepped is the property test: 40
// seeded scenarios, each run both ways, logs compared byte for byte. It
// runs under -race in the repo gate (scripts/check.sh) like the other
// equivalence checks.
func TestRandomWakeInterleavingsMatchStepped(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := scenario{seed: seed}
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			sc.periodics = append(sc.periodics, periodic{
				id:     fmt.Sprintf("p%d", i),
				period: 1 + int64(rng.Intn(12)),
				want:   1 + rng.Intn(6),
			})
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			sc.onces = append(sc.onces, int64(rng.Intn(300)))
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			sc.pokers = append(sc.pokers, pokerSpec{
				period: 1 + int64(rng.Intn(9)),
				want:   1 + rng.Intn(8),
				seed:   rng.Int63(),
			})
		}
		// A quarter of the scenarios keep some plain components, pinning
		// the busy-region rule (no jumps, but sleepers still skip ticks).
		if seed%4 == 0 && len(sc.periodics) > 1 {
			sc.plain = 1 + rng.Intn(len(sc.periodics)-1)
		}

		event := runScenario(t, sc, false)
		steppedLog := runScenario(t, sc, true)
		if event != steppedLog {
			t.Errorf("seed %d: event and stepped runs diverge\nevent:\n%s\nstepped:\n%s",
				seed, event, steppedLog)
		}
	}
	checkWakeScenarios(t)
}

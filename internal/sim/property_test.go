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
// byte-identical run log to the pure stepped schedule. Periods, one-shot
// wakes and poke offsets reach several wheel horizons, so posts cross
// between the wheel and the overflow heap; some mixes hold more than 64
// components, so the wheel has more than one bitmap word per slot; some
// are registered in two calls. Scenario generation is seeded (or decoded
// from fuzz input), so a failure prints a seed or input that reproduces
// it.

// pokerSpec describes one spurious-wake emitter: a periodic component
// that, on each of its effective ticks, wakes a random co-registered
// component at a random future (or past, to exercise the clamp) cycle.
type pokerSpec struct {
	period int64
	want   int
	seed   int64
	reach  int // pokes land up to reach-2 cycles ahead
}

// scenario is pure data, so the stepped and event runs instantiate
// identical component sets.
type scenario struct {
	seed      int64       // names the scenario in failure messages
	periodics []periodic  // values copied per run
	onces     []int64     // wakeOnce cycles
	pokers    []pokerSpec // spurious-wake emitters
	plain     int         // how many periodics lose their Sleeper half
	// split, when nonzero, registers the components in two calls, the
	// first split of them and then the rest; zero registers one per call.
	split int
}

// poker emits the spurious wakes. Draws happen only on period multiples
// while more pokes are owed, so the stepped and event runs consume the
// same pseudo-random sequence whenever their tick schedules agree —
// which is exactly the property under test.
type poker struct {
	id      string
	period  int64
	want    int
	reach   int
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
		h.Wake(cycle - 1 + int64(p.rng.Intn(p.reach)))
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
	var (
		cs      []Component
		logs    []func() string
		pokers  []*poker
		targets = len(sc.periodics) + len(sc.onces)
	)
	// The stepped reference is the same engine with every component's
	// Sleeper half hidden.
	add := func(c Component, plain bool, log func() string) {
		if stepped || plain {
			c = Plain(c)
		}
		cs = append(cs, c)
		logs = append(logs, log)
	}
	for i := range sc.periodics {
		p := sc.periodics[i] // copy
		add(&p, i < sc.plain, func() string { return fmt.Sprintf("%s:%v", p.id, p.ticks) })
	}
	for i, at := range sc.onces {
		w := &wakeOnce{id: fmt.Sprintf("once%d", i), at: at}
		add(w, false, func() string { return fmt.Sprintf("%s:%v", w.id, w.ticks) })
	}
	for i, ps := range sc.pokers {
		pk := &poker{
			id:     fmt.Sprintf("poker%d", i),
			period: ps.period,
			want:   ps.want,
			reach:  ps.reach,
			rng:    rand.New(rand.NewSource(ps.seed)),
		}
		pokers = append(pokers, pk)
		add(pk, false, func() string { return fmt.Sprintf("%s:%v", pk.id, pk.ticks) })
	}

	e := New()
	var handles []Handle
	if sc.split > 0 {
		handles = append(e.Register(cs[:sc.split]...), e.Register(cs[sc.split:]...)...)
	} else {
		for _, c := range cs {
			handles = append(handles, e.Register(c)...)
		}
	}
	for _, pk := range pokers {
		pk.targets = handles[:targets]
	}

	err := e.RunUntilIdle(5000)
	checkWheel(t, e, fmt.Sprintf("seed %d", sc.seed))
	var b strings.Builder
	for _, f := range logs {
		b.WriteString(f())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "cycle:%d skipped>=0:%v err:%v\n", e.Cycle(), e.FastForwarded() >= 0, err)
	return b.String()
}

// checkScenario runs sc both ways and compares the logs byte for byte.
func checkScenario(t *testing.T, sc scenario, name string) {
	t.Helper()
	event := runScenario(t, sc, false)
	steppedLog := runScenario(t, sc, true)
	if event != steppedLog {
		t.Errorf("%s: event and stepped runs diverge\nevent:\n%s\nstepped:\n%s",
			name, event, steppedLog)
	}
}

// genScenario draws a scenario from draw(n), which returns a value in
// [0, n): a seeded generator for the property test, fuzz input for the
// fuzz target.
func genScenario(seed int64, draw func(n int) int) scenario {
	sc := scenario{seed: seed}
	n := 1 + draw(5)
	if draw(4) == 0 {
		n += 64 + draw(80) // two or three bitmap words
	}
	for i := 0; i < n; i++ {
		period := 1 + int64(draw(12))
		if draw(3) == 0 {
			period = 1 + int64(draw(4*wheelSlots)) // up to four horizons
		}
		sc.periodics = append(sc.periodics, periodic{id: fmt.Sprintf("p%d", i), period: period, want: 1 + draw(6)})
	}
	for i, k := 0, draw(4); i < k; i++ {
		sc.onces = append(sc.onces, int64(draw(8*wheelSlots)))
	}
	for i, k := 0, draw(3); i < k; i++ {
		ps := pokerSpec{period: 1 + int64(draw(9)), want: 1 + draw(8), seed: int64(draw(1 << 30)), reach: 30}
		if draw(2) == 0 {
			ps.reach = 3 * wheelSlots
		}
		sc.pokers = append(sc.pokers, ps)
	}
	// A quarter of the scenarios keep some plain components, pinning the
	// busy-region rule (no jumps, but sleepers still skip ticks).
	if draw(4) == 0 && n > 1 {
		sc.plain = 1 + draw(n-1)
	}
	if draw(2) == 0 {
		sc.split = 1 + draw(n+len(sc.onces)+len(sc.pokers))
	}
	return sc
}

// TestRandomWakeInterleavingsMatchStepped is the property test: 40
// seeded scenarios, each run both ways, logs compared byte for byte. It
// runs under -race in the repo gate (scripts/check.sh) like the other
// equivalence checks.
func TestRandomWakeInterleavingsMatchStepped(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkScenario(t, genScenario(seed, rng.Intn), fmt.Sprintf("seed %d", seed))
	}
	checkWakeScenarios(t)
}

// FuzzWakeInterleavings decodes a scenario from the fuzz input, a byte per
// draw (zero once the input runs out), and requires the event run's log to
// equal the stepped run's byte for byte.
func FuzzWakeInterleavings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 7, 2, 0, 200, 3, 1, 90, 1, 5})
	f.Add([]byte{2, 0, 40, 0, 1, 9, 1, 0, 255, 4, 2, 3, 7, 1, 33, 0, 1, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		draw := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0])
			in = in[1:]
			if n > 256 {
				v = v * (n / 256) // a byte reaches n's range in steps
			}
			return v % n
		}
		checkScenario(t, genScenario(0, draw), fmt.Sprintf("input %x", data))
	})
}

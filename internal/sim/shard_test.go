package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the property gate on the sharded engine: for randomly
// generated shard layouts — periodic sleepers, same-shard pokers, and
// cross-shard senders whose traffic flows through per-shard mailboxes
// drained in shard order — the sharded run must produce a byte-identical
// run log to the flat (unsharded) registration of the same components,
// at every worker count and in both wheel modes. It runs under -race in
// scripts/check.sh, so the detector watches the real phase-A
// concurrency.

// sender emits one tagged value into its shard's mailbox on each of its
// effective ticks — the engine-level model of a cluster submitting a
// packet to a fabric. In flat mode it additionally wakes the glue
// component that stands in for the drain hook.
type sender struct {
	id       string
	period   int64
	want     int
	box      *[]string
	wakeGlue func(at int64) // nil in sharded mode: the drain runs every executed cycle
	sent     int
}

func (s *sender) Name() string { return s.id }
func (s *sender) Tick(cycle int64) {
	if cycle%s.period != 0 || s.sent >= s.want {
		return
	}
	*s.box = append(*s.box, fmt.Sprintf("%s@%d", s.id, cycle))
	s.sent++
	if s.wakeGlue != nil {
		s.wakeGlue(cycle)
	}
}
func (s *sender) Idle() bool { return s.sent >= s.want }
func (s *sender) NextWakeup(now int64) int64 {
	if s.sent >= s.want {
		return Never
	}
	if now%s.period == 0 {
		return now
	}
	return now - now%s.period + s.period
}

// collector is the hub-side consumer: it logs everything the drain
// delivered, stamped with its own tick cycle.
type collector struct {
	inbox []string
	log   []string
}

func (c *collector) Name() string { return "collector" }
func (c *collector) Tick(cycle int64) {
	for _, v := range c.inbox {
		c.log = append(c.log, fmt.Sprintf("%s->%d", v, cycle))
	}
	c.inbox = c.inbox[:0]
}
func (c *collector) Idle() bool { return len(c.inbox) == 0 }
func (c *collector) NextWakeup(now int64) int64 {
	if len(c.inbox) > 0 {
		return now
	}
	return Never
}

// shardSpec is one shard's component mix, as pure data.
type shardSpec struct {
	periodics []periodic
	senders   []sender // id/period/want only
	pokerSeed int64    // 0 = no poker; pokers target same-shard components only
	pokerWant int
}

type shardScenario struct {
	shards []shardSpec
	hub    []periodic
}

// runShardScenario executes one scenario and returns its full run log.
// With sharded=false the same components are registered flat, with a
// glue Sleeper standing where the drain hook runs, so the two logs are
// comparable byte for byte.
func runShardScenario(t *testing.T, sc shardScenario, sharded bool, workers int, stepped bool) string {
	t.Helper()
	e := New()
	e.stepped = stepped
	e.maxWorkers = workers

	boxes := make([][]string, len(sc.shards))
	col := &collector{}
	var logs []func() string

	reg := func(shard int, cs ...Component) []Handle {
		if sharded {
			return e.RegisterShard(shard, cs...)
		}
		return e.Register(cs...)
	}
	for si := range sc.shards {
		sp := &sc.shards[si]
		var shardHandles []Handle
		for i := range sp.periodics {
			p := sp.periodics[i] // copy
			pp := &p
			shardHandles = append(shardHandles, reg(si, pp)...)
			logs = append(logs, func() string { return fmt.Sprintf("%s:%v", pp.id, pp.ticks) })
		}
		for i := range sp.senders {
			s := sp.senders[i] // copy
			ss := &s
			ss.box = &boxes[si]
			shardHandles = append(shardHandles, reg(si, ss)...)
			logs = append(logs, func() string { return fmt.Sprintf("%s:%d", ss.id, ss.sent) })
		}
		if sp.pokerSeed != 0 {
			pk := &poker{
				id:      fmt.Sprintf("shard%dpoker", si),
				period:  1 + sp.pokerSeed%7,
				want:    sp.pokerWant,
				rng:     rand.New(rand.NewSource(sp.pokerSeed)),
				targets: shardHandles,
			}
			reg(si, pk)
			logs = append(logs, func() string { return fmt.Sprintf("%s:%v", pk.id, pk.ticks) })
		}
	}

	// The drain: move every shard's mailbox into the collector in shard
	// order, waking it when anything arrived. Flat runs place the same
	// logic in a glue Sleeper registered between the shard and hub
	// regions — the position the drain hook occupies on a sharded engine.
	var colHandle Handle
	drain := func(cycle int64) {
		delivered := false
		for si := range boxes {
			if len(boxes[si]) > 0 {
				col.inbox = append(col.inbox, boxes[si]...)
				boxes[si] = boxes[si][:0]
				delivered = true
			}
		}
		if delivered {
			colHandle.Wake(cycle)
		}
	}
	if sharded {
		e.SetDrain(drain)
	} else {
		var glueHandle Handle
		glueHandle = e.Register(SchedFunc{
			ID: "glue",
			F:  drain,
			W: func(now int64) int64 {
				return Never // woken by senders
			},
		})[0]
		// Wire every sender's glue wake (senders were copied; walk the
		// registered components instead).
		for _, c := range e.components {
			if s, ok := c.(*sender); ok {
				s.wakeGlue = glueHandle.Wake
			}
		}
	}

	colHandle = e.Register(col)[0]
	for i := range sc.hub {
		p := sc.hub[i] // copy
		pp := &p
		e.Register(pp)
		logs = append(logs, func() string { return fmt.Sprintf("%s:%v", pp.id, pp.ticks) })
	}

	err := e.RunUntilIdle(5000)
	var b strings.Builder
	for _, f := range logs {
		b.WriteString(f())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "collector:%v\n", col.log)
	fmt.Fprintf(&b, "cycle:%d skipped:%d err:%v\n", e.Cycle(), e.FastForwarded(), err)
	return b.String()
}

// TestShardedMatchesFlat is the seeded property test over random shard
// counts and worker interleavings required by the sharding contract:
// every (scenario × worker count × wheel mode) run must equal the flat
// single-goroutine run byte for byte, including jump accounting.
func TestShardedMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := shardScenario{}
		nShards := 1 + rng.Intn(6)
		for si := 0; si < nShards; si++ {
			sp := shardSpec{}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				sp.periodics = append(sp.periodics, periodic{
					id:     fmt.Sprintf("s%dp%d", si, i),
					period: 1 + int64(rng.Intn(12)),
					want:   1 + rng.Intn(6),
				})
			}
			for i, n := 0, rng.Intn(3); i < n; i++ {
				sp.senders = append(sp.senders, sender{
					id:     fmt.Sprintf("s%dtx%d", si, i),
					period: 1 + int64(rng.Intn(9)),
					want:   1 + rng.Intn(5),
				})
			}
			if rng.Intn(3) == 0 {
				sp.pokerSeed = 1 + rng.Int63n(1<<30)
				sp.pokerWant = 1 + rng.Intn(6)
			}
			sc.shards = append(sc.shards, sp)
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			sc.hub = append(sc.hub, periodic{
				id:     fmt.Sprintf("hub%d", i),
				period: 1 + int64(rng.Intn(15)),
				want:   1 + rng.Intn(4),
			})
		}

		for _, stepped := range []bool{false, true} {
			flat := runShardScenario(t, sc, false, 1, stepped)
			for _, workers := range []int{1, 2, 3, 8} {
				got := runShardScenario(t, sc, true, workers, stepped)
				if got != flat {
					t.Errorf("seed %d stepped=%v workers=%d: sharded run diverges from flat\nsharded:\n%s\nflat:\n%s",
						seed, stepped, workers, got, flat)
				}
			}
		}
	}
	checkWakeScenarios(t, 1, 2, 8)
}

// TestSleepingShardDoesNotBlockJump is the regression test for the
// min-over-heaps jump target: a shard whose components are all asleep
// (wake = Never) must not pin the clock while another shard has a far
// wake pending.
func TestSleepingShardDoesNotBlockJump(t *testing.T) {
	e := New()
	// Shard 0: one sender that is idle from the start — NextWakeup Never.
	done := &sender{id: "done", period: 1, want: 0}
	var box []string
	done.box = &box
	e.RegisterShard(0, done)
	// Shard 1: a single distant wake.
	w := &wakeOnce{id: "far", at: 400}
	e.RegisterShard(1, w)
	if err := e.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if !w.fired || e.Cycle() != 401 {
		t.Fatalf("fired=%v cycle=%d, want fired at 400 and cycle 401", w.fired, e.Cycle())
	}
	if e.FastForwarded() != 400 {
		t.Errorf("FastForwarded = %d, want 400 (the sleeping shard blocked the jump)", e.FastForwarded())
	}
}

// TestShardedWorkerPoolRuns pins that a multi-worker run really uses
// the pool (Workers > 1) and terminates cleanly across repeated run
// entries — the per-run worker lifecycle.
func TestShardedWorkerPoolRuns(t *testing.T) {
	e := New()
	e.maxWorkers = 4
	var ps []*periodic
	for s := 0; s < 4; s++ {
		p := &periodic{id: fmt.Sprintf("s%d", s), period: 3, want: 5}
		ps = append(ps, p)
		e.RegisterShard(s, p)
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", e.Workers())
	}
	for i := 0; i < 3; i++ {
		if err := e.RunUntilIdle(100); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	for _, p := range ps {
		if len(p.ticks) != 5 {
			t.Errorf("%s ticked %d times, want 5", p.id, len(p.ticks))
		}
	}
}

// TestShardPanicPropagates pins that a component panic inside a worker
// resurfaces on the engine goroutine instead of hanging the barrier.
func TestShardPanicPropagates(t *testing.T) {
	e := New()
	e.maxWorkers = 2
	e.RegisterShard(0, Func{ID: "boom", F: func(int64) { panic("boom") }})
	e.RegisterShard(1, Func{ID: "calm", F: func(int64) {}})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	e.Run(1)
}

// TestRegisterShardContract pins the registration rules: shards are
// contiguous from 0, and freeze once a hub component registers.
func TestRegisterShardContract(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	comp := func() Component { return Func{ID: "c", F: func(int64) {}} }

	mustPanic("skipping a shard index", func() {
		e := New()
		e.RegisterShard(0, comp())
		e.RegisterShard(2, comp())
	})
	mustPanic("sharding after hub registration", func() {
		e := New()
		e.RegisterShard(0, comp())
		e.Register(comp())
		e.RegisterShard(1, comp())
	})
	mustPanic("sharding a flat engine with components", func() {
		e := New()
		e.Register(comp())
		e.RegisterShard(0, comp())
	})

	// Extending the current shard and then opening the next is legal.
	e := New()
	e.RegisterShard(0, comp())
	e.RegisterShard(0, comp())
	e.RegisterShard(1, comp())
	e.Register(comp())
	if e.NumShards() != 2 || e.hubLo() != 3 {
		t.Errorf("NumShards=%d hubLo=%d, want 2 and 3", e.NumShards(), e.hubLo())
	}
}

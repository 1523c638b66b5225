package cfrt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/core"
)

// handBuilt returns a two-participant runtime to be driven by hand. A
// runtime built with no phases has empty queues and finished
// participants; script gets it with both reopened and enqueues each
// participant's instructions, ending each with done(ci) as an OnDone.
func handBuilt(t *testing.T, script func(m *core.Machine, r *Runtime, done func(ci int) func(int64))) *Runtime {
	t.Helper()
	m := mach(t, 1)
	r := New(m, Config{MaxCEs: 2})
	for _, c := range r.ctl {
		c.finished = false
	}
	script(m, r, func(ci int) func(int64) {
		return func(int64) { r.ctl[ci].finished = true }
	})
	return r
}

// TestSteadyStateAllocsWaitLoops is the allocation gate on waiting: what
// a run allocates must not depend on how long its participants spin. A
// barrier spin (seven CEs polling the flag while the eighth computes) and
// a contended lock-path claim (one CE retrying Test-And-Set while the
// other sits on the lock) are each run with the releasing CE held back by
// a scalar of L and of 4·L cycles; the objects Run allocates must be
// equal in number — zero per failed poll, zero per lock retry. With a
// closure and two heap instructions per attempt the longer runs allocate
// some hundreds of objects more.
func TestSteadyStateAllocsWaitLoops(t *testing.T) {
	barrierSpin := func(hold int64) *Runtime {
		return New(mach(t, 1), Config{UseCedarSync: true},
			XDoall{N: 8, Static: true, Body: func(i int, q []ce.Instr) []ce.Instr {
				if i == 0 {
					return append(q, scalarInstr(hold))
				}
				return append(q, scalarInstr(1))
			}})
	}
	lockRetries := func(hold int64) *Runtime {
		return handBuilt(t, func(_ *core.Machine, r *Runtime, done func(int) func(int64)) {
			unlock := func(ci int) ce.Instr {
				return ce.Instr{Op: ce.OpGlobalStore, Addr: r.lockAddr, Value: 0, OnDone: done(ci)}
			}
			r.takeLockThen(0, func() { r.enq(0, scalarInstr(hold), unlock(0)) })
			r.enq(1, scalarInstr(60)) // participant 0 wins the lock
			r.takeLockThen(1, func() { r.enq(1, unlock(1)) })
		})
	}
	// The counts come from raw MemStats, so keep everyone else's
	// allocations out of them the way testing.AllocsPerRun does: one P, no
	// collection (which would also empty the pools a run draws on), and
	// the least of three runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// measure runs a freshly built program three times and reports its
	// length and the least Run allocated.
	measure := func(build func(hold int64) *Runtime, hold int64) (cycles int64, mallocs uint64) {
		for i := 0; i < 3; i++ {
			rt := build(hold)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := rt.Run(10_000_000)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Mallocs - before.Mallocs; i == 0 || n < mallocs {
				mallocs = n
			}
			cycles = res.Cycles
		}
		return cycles, mallocs
	}
	const hold = 5_000
	for _, tc := range []struct {
		name  string
		build func(hold int64) *Runtime
	}{{"barrier spin", barrierSpin}, {"lock retries", lockRetries}} {
		measure(tc.build, hold) // warm what the first run of a process grows
		shortCy, short := measure(tc.build, hold)
		longCy, long := measure(tc.build, 4*hold)
		if longCy-shortCy < 2*hold {
			t.Fatalf("%s: %d cycles at hold %d, %d at %d: the wait did not stretch with the hold",
				tc.name, shortCy, hold, longCy, 4*hold)
		}
		if short != long {
			t.Errorf("%s: Run allocates %d objects with the releaser held %d cycles, %d held %d; a wait's length must cost the host nothing",
				tc.name, short, hold, long, 4*hold)
		}
	}
}

// TestWaitStateDoesNotLeakIntoNextWait starts a wait from inside a wait's
// continuation — the shape of a barrier pass leading straight into the
// next phase's flag poll. The first wait runs long enough to back off to
// the cap; the second must start from the base backoff with its own
// continuation, and each continuation runs once.
func TestWaitStateDoesNotLeakIntoNextWait(t *testing.T) {
	var first, second int
	rt := handBuilt(t, func(m *core.Machine, r *Runtime, done func(int) func(int64)) {
		flagA, flagB := m.AllocGlobal(1), m.AllocGlobal(1)
		waiter := r.ctl[1]
		r.enq(0,
			ce.Instr{Op: ce.OpScalar, Cycles: 3_000, OnDone: func(int64) {
				if got := waiter.wait.backoff; got != pollBackoffCap {
					t.Errorf("first wait's backoff after 3000 cycles = %d, want the cap %d", got, pollBackoffCap)
				}
			}},
			ce.Instr{Op: ce.OpGlobalStore, Addr: flagA, Value: 1},
			scalarInstr(3_000),
			ce.Instr{Op: ce.OpGlobalStore, Addr: flagB, Value: 1, OnDone: done(0)},
		)
		r.pollFlag(1, flagA, 1, func() {
			first++
			if waiter.wait.cont != nil || waiter.wait.backoff != 0 {
				t.Errorf("wait state not cleared before its continuation ran: %+v", waiter.wait)
			}
			r.pollFlag(1, flagB, 1, func() {
				second++
				r.after(1, done(1))
			})
			if got := waiter.wait.backoff; got != r.pollBackoff {
				t.Errorf("second wait starts with backoff %d, want %d", got, r.pollBackoff)
			}
		})
	})
	if _, err := rt.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 1 {
		t.Errorf("continuations ran %d and %d times, want once each", first, second)
	}
	// A second wait on a participant still inside one is a runtime bug.
	r := New(mach(t, 1), Config{MaxCEs: 1})
	r.pollFlag(0, r.flagAddr, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("starting a wait inside an unfinished wait did not panic")
		}
	}()
	r.takeLockThen(0, func() {})
}

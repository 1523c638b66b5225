package cfrt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/network"
)

// leastAllocs builds and runs a program three times and reports its
// length in cycles and the fewest objects and bytes Run allocated. The
// counts come from raw MemStats, so the caller keeps everyone else's
// allocations out of them the way testing.AllocsPerRun does: one P and no
// collection (which would also empty the pools a run draws on); the least
// of three drops a stray runtime allocation.
func leastAllocs(t *testing.T, build func() *Runtime) (cycles int64, mallocs, bytes uint64) {
	t.Helper()
	for i := 0; i < 3; i++ {
		rt := build()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := rt.Run(50_000_000)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; i == 0 || n < mallocs {
			mallocs = n
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < bytes {
			bytes = n
		}
		cycles = res.Cycles
	}
	return cycles, mallocs, bytes
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
			XDoall{N: 8, Sched: StaticSchedule, Body: only(func(i int, in *ce.Instr) {
				if *in = scalarInstr(1); i == 0 {
					in.Cycles = hold
				}
			})})
	}
	// Two CEs self-schedule two iterations on the lock path. Whoever draws
	// the second takes the claim lock again from inside its body — the
	// other CE is still in the library prologue of its next claim, so the
	// Test-And-Set cannot lose — and sits on it for hold cycles while the
	// other retries.
	lockRetries := func(hold int64) *Runtime {
		var r *Runtime
		r = New(mach(t, 1), Config{MaxCEs: 2},
			XDoall{N: 2, Body: func(i, k int, in *ce.Instr) bool {
				switch {
				case i == 0 && k == 0:
					*in = scalarInstr(1)
				case i == 0:
					return false
				case k == 0:
					*in = ce.Instr{Op: ce.OpSync, Addr: r.lockAddr,
						Test: network.TestEQ, TestArg: 0, Mut: network.OpWrite, Value: 1,
						Done: func(_ int, _ int64, passed bool, _ int64) {
							if !passed {
								t.Error("the body's Test-And-Set lost the claim lock: nobody is made to retry")
							}
						}}
				case k == 1:
					*in = scalarInstr(hold)
				case k == 2:
					*in = ce.Instr{Op: ce.OpGlobalStore, Addr: r.lockAddr, Value: 0}
				default:
					return false
				}
				return true
			}})
		return r
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const hold = 5_000
	for _, tc := range []struct {
		name  string
		build func(hold int64) *Runtime
	}{{"barrier spin", barrierSpin}, {"lock retries", lockRetries}} {
		at := func(hold int64) (int64, uint64) {
			cycles, mallocs, _ := leastAllocs(t, func() *Runtime { return tc.build(hold) })
			return cycles, mallocs
		}
		at(hold) // warm what the first run of a process grows
		shortCy, short := at(hold)
		longCy, long := at(4 * hold)
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

// TestSteadyStateAllocsLoops is the allocation gate on iterating: what a
// run allocates must not depend on how many iterations it executes. Every
// loop shape the runtime has — XDOALL self-scheduled with Cedar sync and
// on the lock path, static and guided; SDOALL static and claimed, each
// iteration a cluster-serial step, a block-claimed CDOALL and a
// self-scheduled one — runs one-scalar bodies at N and at 4·N iterations,
// and Run must allocate the same number of objects: zero per iteration,
// claim, chunk step, cluster phase, join and wait. With control flow held
// as a closure chain each iteration costs 2–8 objects and the longer runs
// allocate hundreds to thousands more.
func TestSteadyStateAllocsLoops(t *testing.T) {
	one := only(func(_ int, in *ce.Instr) { *in = scalarInstr(1) })
	xdoall := func(cfg Config, sched Schedule) func(n int) *Runtime {
		return func(n int) *Runtime {
			return New(mach(t, 2), cfg, XDoall{N: n, Sched: sched, Body: one})
		}
	}
	// An SDOALL body returns the cluster phases of its iteration; these
	// return one prebuilt list, so that the slice is not the measurement.
	sdoall := func(cfg Config, static bool) func(n int) *Runtime {
		return func(n int) *Runtime {
			work := []ClusterPhase{
				ClusterSerial{Body: one},
				CDoall{N: n, Static: true, Body: one},
				CDoall{N: n, Body: one},
			}
			return New(mach(t, 2), cfg, SDoall{N: n / 4, Static: static,
				Body: func(int) []ClusterPhase { return work }})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 48
	for _, tc := range []struct {
		name  string
		build func(n int) *Runtime
	}{
		{"xdoall self-scheduled, Cedar sync", xdoall(Config{UseCedarSync: true}, SelfSchedule)},
		{"xdoall self-scheduled, lock path", xdoall(Config{}, SelfSchedule)},
		{"xdoall static", xdoall(Config{UseCedarSync: true}, StaticSchedule)},
		{"xdoall guided, Cedar sync", xdoall(Config{UseCedarSync: true}, GuidedSchedule)},
		{"xdoall guided, lock path", xdoall(Config{}, GuidedSchedule)},
		{"sdoall static", sdoall(Config{UseCedarSync: true}, true)},
		{"sdoall claimed, Cedar sync", sdoall(Config{UseCedarSync: true}, false)},
		{"sdoall claimed, lock path", sdoall(Config{}, false)},
	} {
		at := func(n int) (int64, uint64) {
			cycles, mallocs, _ := leastAllocs(t, func() *Runtime { return tc.build(n) })
			return cycles, mallocs
		}
		at(4 * n) // warm what the first run of a process grows
		shortCy, short := at(n)
		longCy, long := at(4 * n)
		if longCy <= shortCy {
			t.Fatalf("%s: %d cycles at %d iterations, %d at %d: the run did not grow with the loop",
				tc.name, shortCy, n, longCy, 4*n)
		}
		if short != long {
			t.Errorf("%s: Run allocates %d objects at %d iterations, %d at %d; iterating must cost the host nothing",
				tc.name, short, n, long, 4*n)
		}
	}
}

// TestWaitStateDoesNotLeakIntoNextWait drives one participant by hand —
// the test plays its CE, issuing from Next and answering each completion
// — through a wait that leads straight into the next: a barrier flag poll
// whose pass enters the next phase, which arrives at its own barrier and
// polls again. The first wait fails often enough to back off to the cap;
// the second must start from the base backoff with its own flag and step,
// and each phase is entered once.
func TestWaitStateDoesNotLeakIntoNextWait(t *testing.T) {
	nothing := Serial{Body: func(int, int, *ce.Instr) bool { return false }}
	r := New(mach(t, 1), Config{UseCedarSync: true, MaxCEs: 2}, nothing, nothing)
	evs := recordEvents(r)
	c, id := r.ctl[1], r.ces[1].ID
	issue := func(what string) ce.Instr {
		t.Helper()
		var in ce.Instr
		if st := r.Next(id, 0, &in); st != ce.Ready {
			t.Fatalf("%s: Next says %v, want an instruction", what, st)
		}
		return in
	}
	// arrive retires the phase-entry branch and answers the barrier
	// fetch-add as the first of two arrivals, which starts the flag poll.
	arrive := func(k int) {
		t.Helper()
		issue("phase-entry branch").Done(id, 0, false, 0)
		in := issue("barrier arrival")
		if in.Op != ce.OpSync || in.Addr != r.res[k].barCount {
			t.Fatalf("phase %d: arrival is %+v, want a sync on the barrier count", k, in)
		}
		in.Done(id, 0, true, 0)
		if w := c.wait; w.then != stNextPhase || w.try.Addr != r.res[k].barFlag || w.backoff != r.pollBackoff {
			t.Fatalf("phase %d: flag poll starts as %+v, want backoff %d on this phase's flag", k, w, r.pollBackoff)
		}
	}
	// fail answers the poll attempt in flight with a failed test and
	// reports the stall the runtime issues before the next attempt.
	fail := func() int64 {
		t.Helper()
		issue("poll attempt").Done(id, 0, false, 0)
		return issue("backoff stall").Cycles
	}

	arrive(0)
	for i, want := range []int64{25, 50, 100, 200, 400, 400, 400} {
		if got := fail(); got != want {
			t.Fatalf("first wait, stall %d: %d cycles, want %d", i, got, want)
		}
	}
	if c.wait.backoff != pollBackoffCap {
		t.Fatalf("first wait's backoff = %d, want the cap %d", c.wait.backoff, pollBackoffCap)
	}
	issue("passing poll attempt").Done(id, 1, true, 0)
	if c.wait.then != stNone || c.wait.backoff != 0 {
		t.Errorf("wait state not cleared by its pass: %+v", c.wait)
	}
	if c.k != 1 {
		t.Fatalf("participant is in phase %d after the barrier pass, want 1", c.k)
	}

	arrive(1)
	if got := fail(); got != r.pollBackoff {
		t.Errorf("second wait's first stall = %d cycles, want the base %d", got, r.pollBackoff)
	}
	issue("passing poll attempt").Done(id, 1, true, 0)
	var in ce.Instr
	if st := r.Next(id, 0, &in); st != ce.Finished {
		t.Errorf("after the last barrier Next says %v, want Finished", st)
	}
	enters := 0
	for _, e := range *evs {
		if e.Kind == EvPhaseEnter {
			enters++
		}
	}
	if enters != 2 {
		t.Errorf("%d phase entries posted, want one per phase", enters)
	}

	// A second wait on a participant still inside one is a runtime bug.
	r = New(mach(t, 1), Config{MaxCEs: 1})
	r.pollFlag(r.ctl[0], r.flagAddr, 1, stNextPhase)
	defer func() {
		if recover() == nil {
			t.Error("starting a wait inside an unfinished wait did not panic")
		}
	}()
	r.takeLockThen(r.ctl[0], stLockHeld)
}

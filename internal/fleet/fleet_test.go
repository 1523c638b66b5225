package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/scope"
)

// TestRunOrdering is the worker-pool ordering contract: results come back
// in submission order regardless of completion order.
func TestRunOrdering(t *testing.T) {
	const n = 16
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(*scope.Hub) (int, error) {
			// Later submissions finish first, so in-order reassembly is
			// actually exercised.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * i, nil
		}}
	}
	got, err := Run(Config{Jobs: 8, Cache: NewCache()}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestHubBytesIdenticalAcrossWorkerCounts checks the per-job hub plumbing:
// metrics, spans and attribution posted by jobs must serialize identically
// whether the pool ran with one worker or eight.
func TestHubBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	artifacts := func(workers int) (csv, trace []byte) {
		hub := scope.NewHub()
		jobs := make([]Job[int], 6)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{Run: func(h *scope.Hub) (int, error) {
				sub := h.Sub(fmt.Sprintf("job%d", i))
				sub.Table([]string{"value"}, []scope.Kind{scope.KindCounter}, func(dst []int64) { dst[0] = int64(i) })
				sub.Span("work", "run", int64(i*10), int64(i*10+3))
				sub.Attribute("job", func() scope.Attr { return scope.Attr{Busy: int64(i)} })
				return i, nil
			}}
		}
		if _, err := Run(Config{Jobs: workers, Hub: hub, Cache: NewCache()}, jobs); err != nil {
			t.Fatal(err)
		}
		var cb, tb bytes.Buffer
		if err := hub.WriteMetricsCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := hub.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), tb.Bytes()
	}
	c1, t1 := artifacts(1)
	c8, t8 := artifacts(8)
	if !bytes.Equal(c1, c8) {
		t.Errorf("metrics CSV differs between 1 and 8 workers:\n1:\n%s\n8:\n%s", c1, c8)
	}
	if !bytes.Equal(t1, t8) {
		t.Error("trace JSON differs between 1 and 8 workers")
	}
}

// TestCacheSingleFlight checks memoization: eight concurrent jobs with one
// key simulate once and all read the same value.
func TestCacheSingleFlight(t *testing.T) {
	var computes atomic.Int64
	cache := NewCache()
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: "same-point",
			Run: func(*scope.Hub) (int, error) {
				computes.Add(1)
				return 42, nil
			},
		}
	}
	got, err := Run(Config{Jobs: 8, Cache: cache}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (single flight)", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("result[%d] = %d, want 42", i, v)
		}
	}
	// A later Run against the same cache reuses the value outright.
	if _, err := Run(Config{Jobs: 1, Cache: cache}, jobs[:2]); err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times after second Run, want 1", n)
	}
}

// TestNoCacheRunsEveryJob: there is no process-wide cache behind a nil
// Config.Cache — equal keys in one Run, and again in a second Run, all
// execute.
func TestNoCacheRunsEveryJob(t *testing.T) {
	var computes atomic.Int64
	job := Job[int]{Key: "same-point", Run: func(*scope.Hub) (int, error) {
		computes.Add(1)
		return 42, nil
	}}
	for _, workers := range []int{1, 2} {
		if _, err := Run(Config{Jobs: workers}, []Job[int]{job, job}); err != nil {
			t.Fatal(err)
		}
	}
	if n := computes.Load(); n != 4 {
		t.Errorf("compute ran %d times, want 4 (no cache, every job runs)", n)
	}
}

// TestHubDisablesCache: a cache hit skips the simulation and therefore
// cannot replay instrumentation, so observed jobs must always execute.
func TestHubDisablesCache(t *testing.T) {
	var computes atomic.Int64
	cache := NewCache()
	job := Job[int]{Key: "observed-point", Run: func(h *scope.Hub) (int, error) {
		computes.Add(1)
		h.Table([]string{"ran"}, []scope.Kind{scope.KindCounter}, func(dst []int64) { dst[0] = 1 })
		return 7, nil
	}}
	hub := scope.NewHub()
	for i := 0; i < 3; i++ {
		if _, err := Run(Config{Jobs: 1, Hub: hub, Cache: cache}, []Job[int]{job}); err != nil {
			t.Fatal(err)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Errorf("observed job ran %d times, want 3 (cache must be bypassed)", n)
	}
	if st := cache.Stats(); st.Lookups != 0 {
		t.Errorf("cache saw %d lookups from observed runs, want 0 (never presented the key)", st.Lookups)
	}
	if n := len(hub.Snapshot()); n != 3 {
		t.Errorf("hub has %d metrics, want 3", n)
	}
}

// TestKeyDistinctInputs: the run-cache key must separate any two
// configurations that differ in machine parameters, workload, or policy.
func TestKeyDistinctInputs(t *testing.T) {
	base := params.Default()
	k1 := Key("perfect", base, "ARC2D", "auto")
	if k2 := Key("perfect", base, "ARC2D", "auto"); k2 != k1 {
		t.Errorf("identical inputs produced distinct keys:\n%s\n%s", k1, k2)
	}
	mutated := base
	mutated.Clusters = base.Clusters + 1
	distinct := []string{
		Key("perfect", mutated, "ARC2D", "auto"),
		Key("perfect", base, "QCD", "auto"),
		Key("perfect", base, "ARC2D", "serial"),
		Key("table1", base, "ARC2D", "auto"),
	}
	seen := map[string]bool{k1: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("key %d (%s) collides with an earlier configuration", i, k)
		}
		seen[k] = true
	}
}

func TestRunErrorEarliestWins(t *testing.T) {
	errA := errors.New("job 2 failed")
	errB := errors.New("job 5 failed")
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(*scope.Hub) (int, error) {
			switch i {
			case 2:
				return 0, errA
			case 5:
				return 0, errB
			}
			return i, nil
		}}
	}
	_, err := Run(Config{Jobs: 4, Cache: NewCache()}, jobs)
	if !errors.Is(err, errA) {
		t.Errorf("err = %v, want the earliest-submitted failure %v", err, errA)
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run[int](Config{Jobs: 8}, nil)
	if err != nil || got != nil {
		t.Errorf("Run(nil) = %v, %v; want nil, nil", got, err)
	}
}

// TestJobsDefault: Config.Jobs == 0 means GOMAXPROCS workers, read at the
// call — there is no process-wide override. Two jobs that each wait for
// the other to start can only finish if both are running at once.
func TestJobsDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	here := []chan struct{}{make(chan struct{}), make(chan struct{})}
	rendezvous := func(i int) Job[int] {
		return Job[int]{Run: func(*scope.Hub) (int, error) {
			close(here[i])
			select {
			case <-here[1-i]:
				return 0, nil
			case <-time.After(10 * time.Second):
				return 0, errors.New("the other job never started: one worker")
			}
		}}
	}
	if _, err := Run(Config{}, []Job[int]{rendezvous(0), rendezvous(1)}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHandsOutTheCachedValue pins the read-only contract from the
// cache's side: presenters of one key receive the value the cache holds —
// the same backing array, no copy — whether they computed it, coalesced
// on it or hit it later.
func TestCacheHandsOutTheCachedValue(t *testing.T) {
	cache := NewCache()
	var computes atomic.Int64
	job := Job[[]byte]{
		Key: "served-body",
		Run: func(*scope.Hub) ([]byte, error) {
			computes.Add(1)
			return []byte(`{"cycles":1234}`), nil
		},
	}
	both, err := Run(Config{Jobs: 2, Cache: cache}, []Job[[]byte]{job, job})
	if err != nil {
		t.Fatal(err)
	}
	later, err := Run(Config{Jobs: 1, Cache: cache}, []Job[[]byte]{job})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range [][]byte{both[1], later[0]} {
		if string(got) != `{"cycles":1234}` || &got[0] != &both[0][0] {
			t.Errorf("presenter %d received %q at %p, want the cached array at %p", i+1, got, &got[0], &both[0][0])
		}
	}
	if st := cache.Stats(); computes.Load() != 1 || st.Lookups != 3 || st.Misses != 1 || st.Served() != 2 {
		t.Errorf("%d computes, stats %+v; want 1 compute, 3 lookups, 1 miss, 2 served", computes.Load(), st)
	}
}

// TestCacheStatsDeterministicAtAnyWorkerCount: lookups, misses and the
// served count (hits + coalesced) must not depend on scheduling; only the
// hit/coalesce split may. This is the contract cedarbench's deterministic
// artifact section rests on.
func TestCacheStatsDeterministicAtAnyWorkerCount(t *testing.T) {
	counts := func(workers int) CacheStats {
		cache := NewCache()
		jobs := make([]Job[int], 12)
		for i := range jobs {
			// Four distinct keys, each presented three times.
			key := fmt.Sprintf("point-%d", i%4)
			jobs[i] = Job[int]{Key: key, Run: func(*scope.Hub) (int, error) { return i, nil }}
		}
		if _, err := Run(Config{Jobs: workers, Cache: cache}, jobs); err != nil {
			t.Fatal(err)
		}
		return cache.Stats()
	}
	for _, workers := range []int{1, 8} {
		st := counts(workers)
		if st.Lookups != 12 || st.Misses != 4 || st.Served() != 8 {
			t.Errorf("workers=%d: stats %+v, want 12 lookups, 4 misses, 8 served", workers, st)
		}
		if st.Hits+st.Coalesced != 8 {
			t.Errorf("workers=%d: hits %d + coalesced %d != 8", workers, st.Hits, st.Coalesced)
		}
	}
}

// TestWorkerPanicRethrownOnCaller is the pool-crash regression: a
// panicking Job.Run must not kill the process from a worker goroutine.
// The panic is captured in the pool and rethrown on Run's caller — where
// a recover works — after the remaining jobs finish.
func TestWorkerPanicRethrownOnCaller(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(*scope.Hub) (int, error) {
			if i == 3 {
				panic("job 3 exploded")
			}
			ran.Add(1)
			return i, nil
		}}
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panicking job did not rethrow on the caller's goroutine")
		}
		if s, ok := p.(string); !ok || s != "job 3 exploded" {
			t.Fatalf("rethrown panic = %v, want the original value", p)
		}
		if n := ran.Load(); n != 7 {
			t.Errorf("%d healthy jobs ran, want 7 (pool must drain before rethrowing)", n)
		}
	}()
	_, _ = Run(Config{Jobs: 4, Cache: NewCache()}, jobs)
	t.Fatal("Run returned normally despite a panicking job")
}

// TestPanickedComputePoisonsCoalescedWaiters: a panic inside a cached
// computation must not leave coalesced presenters of the same key
// blocked on a done channel that never closes. They get an error, the
// key stays retryable, and the panic still surfaces on the computing
// caller.
func TestPanickedComputePoisonsCoalescedWaiters(t *testing.T) {
	cache := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})

	computerDone := make(chan any, 1)
	go func() {
		defer func() { computerDone <- recover() }()
		_, _ = Run(Config{Jobs: 1, Cache: cache}, []Job[int]{{
			Key: "poisoned",
			Run: func(*scope.Hub) (int, error) {
				close(started)
				<-release
				panic("compute exploded")
			},
		}})
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := Run(Config{Jobs: 1, Cache: cache}, []Job[int]{{
			Key: "poisoned",
			Run: func(*scope.Hub) (int, error) { return 1, nil },
		}})
		waiterErr <- err
	}()
	// The waiter has coalesced once the stats say so; only then let the
	// computation blow up.
	for cache.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if p := <-computerDone; p == nil {
		t.Error("computing caller did not observe the panic")
	}
	err := <-waiterErr
	if !errors.Is(err, errComputePanicked) {
		t.Fatalf("coalesced waiter got %v, want errComputePanicked", err)
	}
	// The poisoned key was dropped, so a later presentation recomputes.
	got, err := Run(Config{Jobs: 1, Cache: cache}, []Job[int]{{
		Key: "poisoned",
		Run: func(*scope.Hub) (int, error) { return 42, nil },
	}})
	if err != nil || got[0] != 42 {
		t.Fatalf("retry after panic = %v, %v; want 42, nil (key must stay retryable)", got, err)
	}
}

// TestErrorsCachedForever pins the do() error-caching contract: a failing
// configuration fails again from cache — deterministically — for the life
// of the entry.
func TestErrorsCachedForever(t *testing.T) {
	cache := NewCache()
	sentinel := errors.New("config rejected")
	var computes atomic.Int64
	bad := Job[int]{Key: "bad-config", Run: func(*scope.Hub) (int, error) {
		computes.Add(1)
		return 0, sentinel
	}}
	good := Job[int]{Key: "bad-config", Run: func(*scope.Hub) (int, error) {
		computes.Add(1)
		return 1, nil
	}}
	if _, err := Run(Config{Jobs: 1, Cache: cache}, []Job[int]{bad}); !errors.Is(err, sentinel) {
		t.Fatalf("first run err = %v", err)
	}
	// Same key, would-be-healthy compute: the cached error is served.
	if _, err := Run(Config{Jobs: 1, Cache: cache}, []Job[int]{good}); !errors.Is(err, sentinel) {
		t.Fatalf("second run err = %v, want the cached %v", err, sentinel)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1 (errors cache like values)", n)
	}
}

// TestHealthyAfterFaultedNotServedDegraded: a degraded-run error cached
// under a fault plan must never be served to a healthy run of the same
// inputs. Key mixes nothing ambient in, so the protection is the caller
// naming the plan as a key part — which is what this pins: same kind and
// sizes, different plan hash, different entry.
func TestHealthyAfterFaultedNotServedDegraded(t *testing.T) {
	cache := NewCache()
	var computes atomic.Int64
	point := func(plan *fault.Plan) Job[string] {
		return Job[string]{Key: Key("exp", "rank", 48, plan.Hash()), Run: func(*scope.Hub) (string, error) {
			computes.Add(1)
			if plan != nil {
				return "partial", fault.ErrDegraded
			}
			return "complete", nil
		}}
	}

	if _, err := Run(Config{Jobs: 1, Cache: cache}, []Job[string]{point(fault.DemoPlan())}); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("faulted run err = %v, want ErrDegraded", err)
	}
	// Same inputs, no plan: must simulate fresh and succeed, never see
	// the cached degraded entry.
	got, err := Run(Config{Jobs: 1, Cache: cache}, []Job[string]{point(nil)})
	if err != nil {
		t.Fatalf("healthy run was served the degraded entry: %v", err)
	}
	if got[0] != "complete" || computes.Load() != 2 {
		t.Fatalf("healthy run got %q after %d computes, want fresh \"complete\" after 2", got[0], computes.Load())
	}
	// The same plan again reuses the degraded entry (errors are cached
	// forever under their key).
	if _, err := Run(Config{Jobs: 1, Cache: cache}, []Job[string]{point(fault.DemoPlan())}); !errors.Is(err, fault.ErrDegraded) {
		t.Fatalf("re-faulted run err = %v, want the cached ErrDegraded", err)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("computes = %d, want 2 (degraded entry reused under its own key)", n)
	}
}

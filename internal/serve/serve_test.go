package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cedar/internal/bench"
	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/store"
)

// reqBody is the canonical fast request the tests submit: trimat order
// 16 on the default machine, the same tiny point the bench tests use.
const reqBody = `{"machine":{"name":"m"},"workload":{"name":"w","kind":"trimat","n":16}}`

// altBody is a second, distinct fast request for eviction tests.
const altBody = `{"machine":{"name":"m"},"workload":{"name":"w2","kind":"trimat","n":12}}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRun submits one run request and returns status, source header and
// body.
func postRun(t *testing.T, base, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cedar-Source"), b
}

// TestCacheHitByteEquality is the serving half of the repo's determinism
// invariant, gated in check.sh: a cached response must be byte-identical
// to the freshly simulated one — within one server, across servers
// sharing the durable store (a daemon restart), and across a true store
// reopen.
func TestCacheHitByteEquality(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Jobs: 2, Store: st})

	code, source, fresh := postRun(t, ts1.URL, reqBody)
	if code != http.StatusOK || source != "run" {
		t.Fatalf("fresh run: code=%d source=%q body=%s", code, source, fresh)
	}
	var r Response
	if err := json.Unmarshal(fresh, &r); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if r.Schema != SchemaVersion || r.Outcome.Status != "ok" || r.Outcome.SimCycles <= 0 {
		t.Fatalf("implausible outcome: %+v", r)
	}

	code, source, cached := postRun(t, ts1.URL, reqBody)
	if code != http.StatusOK || source != "cache" {
		t.Fatalf("repeat run: code=%d source=%q", code, source)
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatalf("cached body differs from fresh:\n%s\n%s", fresh, cached)
	}
	if sims := s1.Stats().Simulations; sims != 1 {
		t.Fatalf("simulations = %d, want 1 (repeat must be served)", sims)
	}
	// Hits are handed the cached slice itself; under -race, concurrent
	// ones prove that serving only reads it, and the body they leave
	// behind is still the first.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, hit := postRun(t, ts1.URL, reqBody); !bytes.Equal(fresh, hit) {
				t.Error("concurrent hit served different bytes")
			}
		}()
	}
	wg.Wait()

	// A second server on the same store is a daemon restart: cold memory
	// cache, warm disk. The response must come back byte-identical with
	// zero simulations.
	s2, ts2 := newTestServer(t, Config{Jobs: 2, Store: st})
	code, source, restarted := postRun(t, ts2.URL, reqBody)
	if code != http.StatusOK || source != "cache" {
		t.Fatalf("restart run: code=%d source=%q", code, source)
	}
	if !bytes.Equal(fresh, restarted) {
		t.Fatal("restarted server served different bytes")
	}
	if sims := s2.Stats().Simulations; sims != 0 {
		t.Fatalf("restarted server simulated %d times, want 0", sims)
	}
	if c := s2.Stats().Cache; c.Misses != 1 || c.DiskHits != 1 {
		t.Fatalf("restarted server cache %+v, want 1 miss answered by 1 disk hit", c)
	}

	// And across a true reopen of the store directory.
	re, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, Config{Jobs: 2, Store: re})
	if _, _, reopened := postRun(t, ts3.URL, reqBody); !bytes.Equal(fresh, reopened) {
		t.Fatal("reopened store served different bytes")
	}
}

// TestCoalescedRequestsShareOneSimulation: concurrent identical
// submissions single-flight on the response cache — one simulation, all
// callers served the same bytes.
func TestCoalescedRequestsShareOneSimulation(t *testing.T) {
	release := make(chan struct{})
	var sims atomic.Int64
	old := runSpec
	runSpec = func(ms bench.MachineSpec, ws bench.WorkloadSpec, plan *fault.Plan, metrics []string) (bench.Outcome, error) {
		sims.Add(1)
		<-release
		return old(ms, ws, plan, metrics)
	}
	defer func() { runSpec = old }()

	s, ts := newTestServer(t, Config{Jobs: 2})
	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, b := postRun(t, ts.URL, reqBody)
			if code != http.StatusOK {
				t.Errorf("request %d: code %d: %s", i, code, b)
			}
			bodies[i] = b
		}(i)
	}
	// Release the gated simulation only once every other submission has
	// presented its key and is waiting on the in-flight entry.
	for {
		st := s.Stats().Cache
		if st.Coalesced >= n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d simulations for %d identical requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d served different bytes", i)
		}
	}
}

// TestDiskHitTakesNoSlot: a key the durable store holds is answered from
// disk without simulating and without an admission slot — it is served
// while another key's simulation holds the only one.
func TestDiskHitTakesNoSlot(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Jobs: 1, Store: st})
	if code, source, b := postRun(t, ts.URL, altBody); code != http.StatusOK || source != "run" {
		t.Fatalf("filling the store: code=%d source=%q body=%s", code, source, b)
	}

	started, release := make(chan struct{}), make(chan struct{})
	old := runSpec
	runSpec = func(ms bench.MachineSpec, ws bench.WorkloadSpec, plan *fault.Plan, metrics []string) (bench.Outcome, error) {
		close(started)
		<-release
		return old(ms, ws, plan, metrics)
	}
	defer func() { runSpec = old }()

	s, ts := newTestServer(t, Config{Jobs: 1, Store: st})
	done := make(chan int)
	go func() {
		code, _, _ := postRun(t, ts.URL, reqBody)
		done <- code
	}()
	<-started // reqBody's simulation holds the only slot
	hit := make(chan string, 1)
	go func() {
		code, source, _ := postRun(t, ts.URL, altBody)
		hit <- fmt.Sprintf("%d %s", code, source)
	}()
	select {
	case got := <-hit:
		if got != "200 cache" {
			t.Errorf("stored key behind a held slot answered %q, want \"200 cache\"", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("stored key waited for the held admission slot")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("slot holder: code=%d", code)
	}
	if c := s.Stats(); c.Simulations != 1 || c.Cache.DiskHits != 1 {
		t.Errorf("stats %+v, want 1 simulation and 1 disk hit", c)
	}
}

// TestFailedSimulationLeavesNoBlob: a simulation that panics or returns
// an error writes nothing to the durable store, so a restart cannot serve
// a failure as a stored response.
func TestFailedSimulationLeavesNoBlob(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(bench.MachineSpec, bench.WorkloadSpec, *fault.Plan, []string) (bench.Outcome, error)
	}{
		{"panic", func(bench.MachineSpec, bench.WorkloadSpec, *fault.Plan, []string) (bench.Outcome, error) {
			panic("injected simulator bug")
		}},
		{"error", func(bench.MachineSpec, bench.WorkloadSpec, *fault.Plan, []string) (bench.Outcome, error) {
			return bench.Outcome{}, errors.New("injected simulator error")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := runSpec
			runSpec = tc.run
			defer func() { runSpec = old }()
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{Jobs: 1, Store: st})
			if code, _, b := postRun(t, ts.URL, reqBody); code != http.StatusInternalServerError {
				t.Fatalf("code=%d body=%s, want 500", code, b)
			}
			if st.Len() != 0 {
				t.Errorf("store holds %d blobs after a failed simulation, want 0", st.Len())
			}
		})
	}
}

// TestBadRequests: every malformed submission is a 400 with a JSON error
// envelope — never a default-configured run.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	cases := []struct {
		name, body, wantErr string
	}{
		{"truncated json", `{"machine":`, "decoding request"},
		{"unknown field", `{"machine":{"name":"m","fabrik":"omega"}}`, "unknown field"},
		{"bad fabric", `{"machine":{"fabric":"hypercube"},"workload":{"kind":"trimat"}}`, "unknown fabric"},
		{"impossible machine", `{"machine":{"name":"m","clusters":64},"workload":{"name":"w","kind":"rank","n":8}}`, "params: NetPorts"},
		{"bad kind", `{"workload":{"kind":"sort"}}`, "unknown kind"},
		{"negative size", `{"workload":{"kind":"trimat","n":-4}}`, "non-negative"},
		{"bad rank variant", `{"workload":{"kind":"rank","variant":"turbo"}}`, "unknown rank variant"},
		{"field the kind never reads", `{"workload":{"kind":"trimat","n":8,"bw":7}}`, `does not read "bw"`},
		{"fields the kind never reads", `{"workload":{"kind":"trimat","n":8,"variant":"cache","sweeps":3,"gap":9}}`, `does not read "variant"`},
		{"lower-case code", `{"workload":{"kind":"perfect","code":"qcd","variant":"kap"}}`, `unknown Perfect code "qcd" (want one of ADM, ARC2D`},
		{"unknown code", `{"workload":{"kind":"perfect","code":"LINPACK","variant":"kap"}}`, `unknown Perfect code "LINPACK"`},
		{"hand on TRACK", `{"workload":{"kind":"perfect","code":"TRACK","variant":"hand"}}`, "TRACK has no hand version"},
		{"block on trimat", `{"workload":{"kind":"trimat","block":32}}`, `does not read "block"`},
		{"fault path", `{"workload":{"kind":"trimat"},"fault":{"path":"/etc/passwd"}}`, `unknown field "path"`},
		{"fault demo+plan", `{"workload":{"kind":"trimat"},"fault":{"demo":true,"plan":{}}}`, "mutually exclusive"},
		{"second object and garbage", reqBody + ` {"workload":{"kind":"nonsense"}} trailing garbage`, "data after the request object"},
		{"unbounded padding", reqBody + strings.Repeat(" ", 5<<20), "request body too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postRun(t, ts.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400; body: %s", code, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantErr)
			}
		})
	}
	if got := s.Stats().BadRequests; got != int64(len(cases)) {
		t.Errorf("bad request counter = %d, want %d", got, len(cases))
	}
	if got := s.Stats().Simulations; got != 0 {
		t.Errorf("%d simulations ran for malformed submissions", got)
	}
}

// TestMethodNotAllowed: the mux method patterns reject a GET on the
// submission endpoint.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

// TestPanicBecomes500: a panicking simulation is a 500 error response —
// the daemon survives, and the key stays retryable once the fault is
// gone.
func TestPanicBecomes500(t *testing.T) {
	old := runSpec
	runSpec = func(bench.MachineSpec, bench.WorkloadSpec, *fault.Plan, []string) (bench.Outcome, error) {
		panic("injected simulator bug")
	}
	s, ts := newTestServer(t, Config{Jobs: 1})

	code, _, body := postRun(t, ts.URL, reqBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking run: code=%d body=%s", code, body)
	}
	if !bytes.Contains(body, []byte("injected simulator bug")) {
		t.Errorf("500 body does not name the panic: %s", body)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The poisoned entry was dropped: with the bug fixed, the same
	// request computes cleanly.
	runSpec = old
	if code, source, _ := postRun(t, ts.URL, reqBody); code != http.StatusOK || source != "run" {
		t.Fatalf("retry after panic: code=%d source=%q, want 200 fresh run", code, source)
	}
}

// TestStoreEvictionOverAPI: a size-bounded store behind the daemon
// evicts the least recently used response instead of growing without
// bound.
func TestStoreEvictionOverAPI(t *testing.T) {
	// Learn the two response sizes with an unbacked server, then budget
	// the store so either fits but not both.
	_, ts := newTestServer(t, Config{Jobs: 1})
	_, _, a := postRun(t, ts.URL, reqBody)
	_, _, b := postRun(t, ts.URL, altBody)
	budget := int64(len(a))
	if int64(len(b)) > budget {
		budget = int64(len(b))
	}

	st, err := store.Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Jobs: 1, Store: st})
	postRun(t, ts2.URL, reqBody)
	postRun(t, ts2.URL, altBody)
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries under a one-response budget, want 1", st.Len())
	}
	if st.Stats().Evictions != 1 {
		t.Errorf("store stats %+v, want 1 eviction", st.Stats())
	}
}

// TestStatsEndpoint: the operational counters are served as JSON, in a
// fixed shape operators read: the top-level keys in order, and the cache
// object flat — the memory tier's counters, then DiskHits.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	postRun(t, ts.URL, reqBody)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	var wire struct{ Cache json.RawMessage }
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 || stats.Simulations != 1 || stats.Cache.Misses != 1 {
		t.Errorf("stats %+v, want 1 request, 1 simulation, 1 miss", stats)
	}
	top, cache := objectKeys(t, raw), objectKeys(t, wire.Cache)
	if want := []string{"requests", "bad_requests", "simulations", "panics", "write_errors", "cache"}; !reflect.DeepEqual(top, want) {
		t.Errorf("/v1/stats keys %v, want %v", top, want)
	}
	if want := []string{"Lookups", "Misses", "Hits", "Coalesced", "DiskHits"}; !reflect.DeepEqual(cache, want) {
		t.Errorf("/v1/stats cache keys %v, want %v", cache, want)
	}
}

// objectKeys returns the keys of the JSON object raw in wire order.
func objectKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// failingWriter is a ResponseWriter whose body writes fail, as they do
// once a client has hung up.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client hung up") }

// TestWriteErrorsCounted: a body the client never receives is counted,
// on the liveness probe and on a memory-tier hit alike.
func TestWriteErrorsCounted(t *testing.T) {
	s := New(Config{Jobs: 1})
	h := s.Handler()
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(reqBody))
	}
	h.ServeHTTP(httptest.NewRecorder(), post()) // the miss that fills the cache
	h.ServeHTTP(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	hit := failingWriter{httptest.NewRecorder()}
	h.ServeHTTP(hit, post())
	if src := hit.Header().Get("X-Cedar-Source"); src != "cache" {
		t.Fatalf("second request source %q, want a memory-tier hit", src)
	}
	if got := s.Stats().WriteErrors; got != 2 {
		t.Errorf("WriteErrors = %d, want 2", got)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// mustKey is requestKey for inputs that always have a JSON encoding.
func mustKey(t *testing.T, req Request, plan *fault.Plan, metrics []string) string {
	t.Helper()
	k, err := requestKey(req, plan, metrics)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRequestKeyDistinguishesInputs: the inputs beside the specs — the
// fault plan and the metric filter — move the cache key, and identical
// inputs keep it, so distinct experiments can never share bytes. The
// metric list is keyed as a list: one prefix holding a comma is not the
// two prefixes either side of it.
func TestRequestKeyDistinguishesInputs(t *testing.T) {
	base := Request{
		Machine:  bench.MachineSpec{Name: "m"},
		Workload: bench.WorkloadSpec{Name: "w", Kind: "trimat", N: 16},
	}
	metrics := bench.DefaultMetrics
	k0 := mustKey(t, base, nil, metrics)
	for _, tc := range []struct{ what, a, b string }{
		{"fault plan", k0, mustKey(t, base, fault.DemoPlan(), metrics)},
		{"metrics", k0, mustKey(t, base, nil, []string{"gmem."})},
		{"metric list split at a comma", mustKey(t, base, nil, []string{"gmem.,pfu."}), mustKey(t, base, nil, []string{"gmem.", "pfu."})},
	} {
		if tc.a == tc.b {
			t.Errorf("changing the %s did not change the key", tc.what)
		}
	}
	if again := mustKey(t, base, nil, metrics); again != k0 {
		t.Error("identical inputs produced different keys")
	}
}

// TestRequestKeyCoversEveryField: the response key is built from the point
// itself, so every field of the machine spec, the workload spec and the
// resolved fault plan — its seed and every field of every fault of the
// demo plan — moves it; the names too, because they appear in the response
// body. A field added to a spec or a plan, or one hidden from the JSON
// encoding, can never let two different requests share one response.
func TestRequestKeyCoversEveryField(t *testing.T) {
	point := func() bench.Point {
		return bench.Point{
			Machine:  bench.MachineSpec{Name: "m"},
			Workload: bench.WorkloadSpec{Name: "w", Kind: "cg", N: 64},
			Plan:     fault.DemoPlan(),
		}
	}
	key := func(pt bench.Point) string {
		return mustKey(t, Request{Machine: pt.Machine, Workload: pt.Workload}, pt.Plan, bench.DefaultMetrics)
	}
	k0 := key(point())
	base := point()
	names, _ := leaves("Point", reflect.ValueOf(&base).Elem())
	for i, name := range names {
		pt := point()
		_, vals := leaves("Point", reflect.ValueOf(&pt).Elem())
		if !flip(vals[i]) {
			t.Fatalf("%s (%s) cannot be changed: teach flip its type, or export it", name, vals[i].Type())
		}
		if key(pt) == k0 {
			t.Errorf("changing %s left the key unchanged", name)
		}
	}
}

// leaves returns the name and value of every scalar field under v,
// descending into structs, pointers and slices.
func leaves(name string, v reflect.Value) (names []string, vals []reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		return leaves(name, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n, f := leaves(name+"."+v.Type().Field(i).Name, v.Field(i))
			names, vals = append(names, n...), append(vals, f...)
		}
		return names, vals
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n, f := leaves(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
			names, vals = append(names, n...), append(vals, f...)
		}
		return names, vals
	}
	return []string{name}, []reflect.Value{v}
}

// flip sets v to another value of its type — a fault kind to another
// known kind — and reports false for a type it does not know or a field
// it cannot set.
func flip(v reflect.Value) bool {
	if !v.CanSet() {
		return false
	}
	if v.Type() == reflect.TypeOf(fault.Kind(0)) {
		k := fault.BankDead
		if fault.Kind(v.Uint()) == k {
			k = fault.StageJam
		}
		v.SetUint(uint64(k))
		return true
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		return false
	}
	return true
}

// TestHitBudget: a repeat request answered from the memory tier —
// decode, validate, key, lookup and write, through Handler — allocates
// at most what it did when the key became the sha256 of the point's JSON.
// Every request builds its key, hits included, so the key's cost is on
// this path.
func TestHitBudget(t *testing.T) {
	budget := 42.0
	if raceEnabled {
		budget *= 1.15
	}
	h := New(Config{Jobs: 1}).Handler()
	var rec *httptest.ResponseRecorder
	serve := func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(reqBody)))
	}
	serve() // the miss that simulates and fills the cache
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(100, serve)
	if src := rec.Header().Get("X-Cedar-Source"); rec.Code != http.StatusOK || src != "cache" {
		t.Fatalf("repeat request: code=%d source=%q, want 200 from the cache", rec.Code, src)
	}
	if got > budget {
		t.Errorf("a memory-tier hit allocates %.0f objects, budget %.0f", got, budget)
	} else {
		t.Logf("memory-tier hit: %.0f objects", got)
	}
}

// TestPerfectRequestIsTheSuitesPoint: a served Perfect request is the
// suite's point — QCD's KAP version on the default machine — and reports
// the cycles perfect.Run simulates for it, the number Table 3's row is
// built from.
func TestPerfectRequestIsTheSuitesPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("Perfect simulation in -short mode")
	}
	_, ts := newTestServer(t, Config{Jobs: 1})
	code, _, body := postRun(t, ts.URL, `{"workload":{"kind":"perfect","code":"QCD","variant":"kap"}}`)
	if code != http.StatusOK {
		t.Fatalf("code = %d: %s", code, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	want, err := perfect.Run(params.Default(), perfect.QCD(), perfect.Spec{Variant: perfect.KAP})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.SimCycles != want.SimCycles || r.Outcome.MFLOPS != want.MFLOPS {
		t.Errorf("served %d cycles, %v MFLOPS; perfect.Run %d, %v", r.Outcome.SimCycles, r.Outcome.MFLOPS, want.SimCycles, want.MFLOPS)
	}
}

// TestDemoFaultRunsDegradedOrOk: a demo-plan submission flows through to
// a valid outcome and is cached under a distinct key from the healthy
// run.
func TestDemoFaultRunsDegradedOrOk(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	healthy := reqBody
	faulted := `{"machine":{"name":"m"},"workload":{"name":"w","kind":"trimat","n":16},"fault":{"demo":true}}`

	_, _, hb := postRun(t, ts.URL, healthy)
	code, _, fb := postRun(t, ts.URL, faulted)
	if code != http.StatusOK {
		t.Fatalf("faulted run: code=%d body=%s", code, fb)
	}
	if bytes.Equal(hb, fb) {
		t.Fatal("faulted and healthy runs served identical bytes")
	}
	var r Response
	if err := json.Unmarshal(fb, &r); err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Status != "ok" && r.Outcome.Status != "degraded" {
		t.Fatalf("faulted outcome status %q", r.Outcome.Status)
	}
	if r.Outcome.Faults.Injected == 0 {
		t.Error("demo plan injected no faults")
	}
	if got := s.Stats().Simulations; got != 2 {
		t.Errorf("simulations = %d, want 2 distinct", got)
	}
}

// TestOversizeResponseStillServed: a store too small for any response
// degrades the daemon to memory-only caching, never to an error.
func TestOversizeResponseStillServed(t *testing.T) {
	st, err := store.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Jobs: 1, Store: st})
	code, _, body := postRun(t, ts.URL, reqBody)
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%s", code, body)
	}
	if st.Len() != 0 || st.Stats().Rejected != 1 {
		t.Errorf("store %+v, want the oversize blob rejected", st.Stats())
	}
	if code, source, _ := postRun(t, ts.URL, reqBody); code != http.StatusOK || source != "cache" {
		t.Errorf("memory tier did not serve the repeat: code=%d source=%q", code, source)
	}
}

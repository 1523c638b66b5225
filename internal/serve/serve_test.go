package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	if hits := s2.Stats().Cache.DiskHits; hits != 1 {
		t.Fatalf("restarted server disk hits = %d, want 1", hits)
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
		{"fault path", `{"workload":{"kind":"trimat"},"fault":{"path":"/etc/passwd"}}`, "not accepted"},
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

// TestStatsEndpoint: the operational counters are served as JSON.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	postRun(t, ts.URL, reqBody)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 || stats.Simulations != 1 || stats.Cache.Misses != 1 {
		t.Errorf("stats %+v, want 1 request, 1 simulation, 1 miss", stats)
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

// TestRequestKeyDistinguishesInputs: the inputs beside the specs — the
// fault plan and the metric filter — move the cache key, and identical
// inputs keep it, so distinct experiments can never share bytes.
func TestRequestKeyDistinguishesInputs(t *testing.T) {
	base := Request{
		Machine:  bench.MachineSpec{Name: "m"},
		Workload: bench.WorkloadSpec{Name: "w", Kind: "trimat", N: 16},
	}
	metrics := bench.DefaultMetrics
	k0 := requestKey(base, nil, metrics)
	for what, k := range map[string]string{
		"fault plan": requestKey(base, fault.DemoPlan(), metrics),
		"metrics":    requestKey(base, nil, []string{"gmem."}),
	} {
		if k == k0 {
			t.Errorf("changing %s did not change the key", what)
		}
	}
	if again := requestKey(base, nil, metrics); again != k0 {
		t.Error("identical inputs produced different keys")
	}
}

// TestRequestKeyCoversEveryField: the response key is built from the specs
// themselves, so every field of the machine and the workload spec moves it
// — the names too, because they appear in the response body. A field added
// to either spec can never let two different requests share one response.
func TestRequestKeyCoversEveryField(t *testing.T) {
	base := Request{
		Machine:  bench.MachineSpec{Name: "m"},
		Workload: bench.WorkloadSpec{Name: "w", Kind: "cg", N: 64},
	}
	k0 := requestKey(base, nil, bench.DefaultMetrics)
	for _, spec := range []string{"Machine", "Workload"} {
		typ := reflect.ValueOf(base).FieldByName(spec).Type()
		for i := 0; i < typ.NumField(); i++ {
			req := base
			switch f := reflect.ValueOf(&req).Elem().FieldByName(spec).Field(i); f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s.%s has kind %s: teach this test to change it", typ.Name(), typ.Field(i).Name, f.Kind())
			}
			if requestKey(req, nil, bench.DefaultMetrics) == k0 {
				t.Errorf("changing %s.%s left the key unchanged", typ.Name(), typ.Field(i).Name)
			}
		}
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

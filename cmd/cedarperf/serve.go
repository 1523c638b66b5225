package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"
)

// clients is the closed loop's width: each client sends its next request
// only after the previous reply, because cedarserve's callers are
// scripts waiting for an answer. Two, to match the host's two CPUs.
const clients = 2

// servePlan sizes a serve run. Request counts are fixed per plan, never
// time-bounded: how many keys the store holds decides what a Put costs,
// so both sides of a comparison must send the same requests.
type servePlan struct {
	template int // blobs the store is pre-filled with
	warm     int // warm-up keys, run and repeated during set-up
	cold     int // unique keys of phase cold (run tier), re-read in phase disk
	hot      int // Zipf repeats of phase hot (memory tier)
	mixed    int // requests of phase mixed: 90% repeats, 10% new keys
	probe    int // single-client probes behind the serve.* overhead metrics; 0 = none
}

func (cfg runConfig) servePlan() servePlan {
	switch {
	case cfg.tiny:
		return servePlan{template: 16, warm: 4, cold: 12, hot: 200, mixed: 60, probe: 8}
	case cfg.trace:
		// The traced run and the serve rig: every phase, a tenth the size.
		return servePlan{template: 100, warm: 16, cold: 60, hot: 12000, mixed: 600, probe: 40}
	}
	s := cfg.seconds
	return servePlan{template: 100, warm: 16, cold: 40 * s, hot: 8000 * s, mixed: 400 * s}
}

// newKeys is how many unique keys phase mixed introduces.
func (p servePlan) newKeys() int { return p.mixed / 10 }

// serveKeys draws the run's key set from the seed: unique small
// latency-kind specs, cheap to simulate so the serving path — decode,
// key, lookup, marshal, store.Put — is what the run tier measures.
func serveKeys(seed int64, n int) [][]byte {
	const gaps = 16
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n + gaps) // a few spare, so seeds differ in membership too
	keys := make([][]byte, n)
	for i := range keys {
		k := order[i]
		body, err := requestBody(pointSpec{Name: "lat", Machine: "cedar", Kind: "latency", N: 40 + k/gaps, Gap: k % gaps})
		if err != nil {
			panic(err) // a struct of ints and strings always encodes
		}
		keys[i] = body
	}
	return keys
}

// request is one planned submission: which key, and the tier that must
// answer it.
type request struct {
	key  int
	tier string // expected X-Cedar-Source
}

// serveRun is one serve run's client-side state, across both server
// lifetimes.
type serveRun struct {
	cfg  runConfig
	plan servePlan
	dir  string
	keys [][]byte   // request bodies by key index
	sums [][32]byte // sha256 of the first body seen per key
	seen []bool
	cold [][]byte // bodies of the cold phase, parsed after timing
	srv  *served
	// budget is the store's byte budget, kept for the reopen.
	budget int64
	tr     *tracer
	v      verdict
	lat    map[string][]time.Duration // per phase
	wall   map[string]time.Duration
	alloc  uint64 // mallocs over the timed phases
	bytes  uint64 // bytes allocated over the timed phases
	sent   int
	// counts accumulated over both server lifetimes, less warmed, what
	// the warm-up had already cost the first server
	counts, warmed serveCounts
	// skippedShare is the probes' fast-forwarded share of engine cycles.
	skippedShare float64
}

// specOf decodes a request body back into the point it encodes.
func specOf(body []byte) (pointSpec, error) {
	var req struct {
		Workload struct {
			N   int `json:"n"`
			Gap int `json:"gap"`
		} `json:"workload"`
	}
	err := json.Unmarshal(body, &req)
	return pointSpec{Name: "lat", Machine: "cedar", Kind: "latency", N: req.Workload.N, Gap: req.Workload.Gap}, err
}

// client is one closed-loop connection.
type client struct {
	id   int
	http *http.Client
	lat  []time.Duration
	why  []string
	bad  int
}

func newClient(id int) *client {
	return &client{id: id, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do sends one request and verifies the reply. The body is always read
// to the end and closed, so the keep-alive connection is reused.
func (s *serveRun) do(c *client, url string, rq request, phase string, parent int, keep bool) {
	id := s.tr.begin("request", phase, parent, c.id)
	rt := s.tr.begin("http.roundtrip", phase, id, c.id)
	start := time.Now()
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(s.keys[rq.key]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	c.lat = append(c.lat, time.Since(start))
	s.tr.end(rt)
	vs := s.tr.begin("verify", phase, id, c.id)
	defer func() { s.tr.end(vs); s.tr.end(id) }()
	fail := func(format string, a ...any) {
		c.bad++
		if len(c.why) < 4 {
			c.why = append(c.why, fmt.Sprintf("%s key %d: ", phase, rq.key)+fmt.Sprintf(format, a...))
		}
	}
	switch sum := sha256.Sum256(body); {
	case err != nil:
		fail("%v", err)
	case resp.StatusCode != http.StatusOK:
		fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case resp.Header.Get("X-Cedar-Source") != rq.tier:
		fail("answered from tier %q, want %q", resp.Header.Get("X-Cedar-Source"), rq.tier)
	case !s.seen[rq.key]:
		s.sums[rq.key], s.seen[rq.key] = sum, true
		if keep {
			s.cold[rq.key] = body
		}
	case sum != s.sums[rq.key]:
		fail("body sha256 differs from the first body for this key")
	}
}

// phase runs the per-client request lists to completion, closed loop,
// and records latencies, wall and mallocs. Clients touch disjoint key
// indices when they write (first sight), so they share no mutable state.
func (s *serveRun) phase(name string, reqs [clients][]request) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i)
		cs[i].lat = make([]time.Duration, 0, len(reqs[i]))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	span := s.tr.begin("phase", name, 0, 0)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rq := range reqs[i] {
				s.do(c, s.srv.runURL(), rq, name, span, name == "cold")
			}
		}()
	}
	wg.Wait()
	s.wall[name] = time.Since(start)
	s.tr.end(span)
	runtime.ReadMemStats(&m1)
	s.alloc += m1.Mallocs - m0.Mallocs
	s.bytes += m1.TotalAlloc - m0.TotalAlloc
	for i, c := range cs {
		c.http.CloseIdleConnections()
		s.lat[name] = append(s.lat[name], c.lat...)
		s.sent += len(reqs[i])
		s.v.attempted += len(reqs[i]) - c.bad
		for k := 0; k < c.bad; k++ {
			why := "further failures in phase " + name
			if k < len(c.why) {
				why = c.why[k]
			}
			s.v.op(why)
		}
	}
}

// split deals requests to the clients round-robin.
func split(reqs []request) (out [clients][]request) {
	for i, rq := range reqs {
		out[i%clients] = append(out[i%clients], rq)
	}
	return out
}

// zipfRepeats draws n repeats over keys [lo, lo+span) with a Zipf
// popularity order, one independent stream per client.
func zipfRepeats(seed int64, n, lo, span int) (out [clients][]request) {
	for c := range out {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		z := rand.NewZipf(rng, 1.1, 1, uint64(span-1))
		for i := 0; i < n/clients; i++ {
			out[c] = append(out[c], request{key: lo + int(z.Uint64()), tier: "cache"})
		}
	}
	return out
}

// setup builds everything a serve run needs before its first timed
// request: the pre-filled store, the server over it, and a warm-up that
// takes both tiers through their first-use paths.
func (s *serveRun) setup() error {
	if s.srv != nil {
		s.srv.close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	dir, err := s.cfg.scratch("serve")
	if err != nil {
		return err
	}
	s.dir = dir
	p := s.plan
	const blobBytes = 1400 // about one small response body
	templateBytes, err := fillStore(dir, p.template, blobBytes, nil)
	if err != nil {
		return err
	}
	// The budget holds the template, the warm-up keys and 1.2× the cold
	// key set, so phase mixed's new keys overflow it and eviction runs
	// beside reads.
	s.budget = templateBytes + int64(blobBytes)*int64(p.warm+p.cold*12/10)
	if s.srv, err = openServer(dir, s.budget, clients); err != nil {
		return err
	}
	total := p.warm + p.cold + p.newKeys() + 2*p.probe
	s.keys = serveKeys(s.cfg.seed, total)
	s.sums, s.seen, s.cold = make([][32]byte, total), make([]bool, total), make([][]byte, total)
	s.lat, s.wall = map[string][]time.Duration{}, map[string]time.Duration{}
	s.v, s.alloc, s.bytes, s.sent, s.counts = verdict{}, 0, 0, 0, serveCounts{}
	var warm []request
	for k := 0; k < p.warm; k++ {
		warm = append(warm, request{key: k, tier: "run"})
	}
	tr := s.tr
	s.tr = nil
	s.phase("warm-run", split(warm))
	// Enough repeats that the set-up's cost is mostly the process's own
	// work: the template fill waits on (and the kernel burns CPU in)
	// fsyncs, whose cost on this host is anything but steady.
	s.phase("warm-hit", zipfRepeats(s.cfg.seed, 200*p.warm, 0, p.warm))
	s.tr = tr
	if s.v.failed > 0 {
		return fmt.Errorf("serve warm-up failed: %v", s.v.reasons)
	}
	s.v, s.alloc, s.bytes, s.sent = verdict{}, 0, 0, 0
	s.warmed = s.srv.counts()
	return nil
}

// restart closes the server and opens a new one over the same store
// directory: the memory tier is gone, the disk tier must answer.
func (s *serveRun) restart() error {
	s.addCounts()
	s.srv.close()
	srv, err := openServer(s.dir, s.budget, clients)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *serveRun) addCounts() {
	c := s.srv.counts()
	s.counts.Simulations += c.Simulations - s.warmed.Simulations
	s.counts.DiskHits += c.DiskHits - s.warmed.DiskHits
	s.counts.Evictions += c.Evictions - s.warmed.Evictions
	s.counts.StoreErrors += c.StoreErrors - s.warmed.StoreErrors
	s.counts.Entries = c.Entries
	s.warmed = serveCounts{}
}

// phases runs cold → hot → restart → disk → mixed and the server-side
// count checks.
func (s *serveRun) phases() error {
	p := s.plan
	lo := p.warm
	var cold []request
	for k := 0; k < p.cold; k++ {
		cold = append(cold, request{key: lo + k, tier: "run"})
	}
	s.phase("cold", split(cold))
	if s.cfg.plantBody {
		s.sums[lo][0] ^= 0xff
	}
	s.phase("hot", zipfRepeats(s.cfg.seed, p.hot, lo, p.cold))
	if err := s.restart(); err != nil {
		return err
	}
	var disk []request
	for k := 0; k < p.cold; k++ {
		disk = append(disk, request{key: lo + k, tier: "cache"})
	}
	s.phase("disk", split(disk))
	mixed := zipfRepeats(s.cfg.seed+1, p.mixed, lo, p.cold)
	next := lo + p.cold
	for c := range mixed {
		for i := range mixed[c] {
			if i%10 == 9 && next < lo+p.cold+p.newKeys() {
				mixed[c][i] = request{key: next, tier: "run"}
				next++
			}
		}
	}
	s.phase("mixed", mixed)
	s.addCounts()

	// What the server says it did must match what was sent.
	unique := int64(p.cold + (next - lo - p.cold))
	if s.counts.Simulations != unique {
		s.v.op(fmt.Sprintf("server ran %d simulations for %d unique keys", s.counts.Simulations, unique))
	}
	if s.counts.DiskHits != int64(p.cold) {
		s.v.op(fmt.Sprintf("disk tier answered %d of %d keys after the restart", s.counts.DiskHits, p.cold))
	}
	if s.counts.StoreErrors != 0 {
		s.v.op(fmt.Sprintf("store reported %d IO errors", s.counts.StoreErrors))
	}
	return nil
}

// coldCycles sums the simulated cycles of the cold phase's responses.
func (s *serveRun) coldCycles() (cycles int64, busy []classBusy, err error) {
	for _, body := range s.cold {
		if body == nil {
			continue
		}
		var resp struct {
			Outcome struct {
				SimCycles   int64 `json:"simcycles"`
				Attribution []struct {
					Class         string
					Busy, Elapsed int64
				} `json:"attribution"`
			} `json:"outcome"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, nil, err
		}
		cycles += resp.Outcome.SimCycles
		for _, a := range resp.Outcome.Attribution {
			busy = append(busy, classBusy{Class: a.Class, Busy: a.Busy, Elapsed: a.Elapsed})
		}
	}
	return cycles, busy, nil
}

func (s *serveRun) close() {
	if s.srv != nil {
		s.srv.close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *serveRun) allLatencies() []time.Duration {
	var all []time.Duration
	for _, name := range []string{"cold", "hot", "disk", "mixed"} {
		all = append(all, s.lat[name]...)
	}
	return all
}

// layerMetrics reports the serve.* and store.evictions per-layer
// metrics of a finished run.
func (s *serveRun) layerMetrics(ms *metricSet) {
	hot := in(time.Microsecond, s.lat["hot"])
	ms.set("serve.run_p50_ms", median(in(time.Millisecond, s.lat["cold"])), len(s.lat["cold"]))
	ms.set("serve.hit_p50_us", median(hot), len(hot))
	ms.set("serve.hit_p90_us", quantile(hot, 0.90), len(hot))
	ms.set("serve.hit_p99_us", quantile(hot, 0.99), len(hot))
	ms.set("serve.disk_p50_us", median(in(time.Microsecond, s.lat["disk"])), len(s.lat["disk"]))
	ms.set("serve.req_per_s", float64(len(s.lat["mixed"]))/s.wall["mixed"].Seconds(), len(s.lat["mixed"]))
	ms.set("serve.simulations", float64(s.counts.Simulations), 1)
	ms.set("serve.disk_hits", float64(s.counts.DiskHits), 1)
	ms.set("store.evictions", float64(s.counts.Evictions), 1)
}

// probes measures, one request at a time on a quiet server, what the
// socket adds to a hit and what serving adds to a simulation.
func (s *serveRun) probes(ms *metricSet) error {
	p := s.plan
	lo := p.warm + p.cold + p.newKeys()
	// Run tier, single client, on fresh keys; then the same specs
	// straight through bench.RunSpec.
	c := newClient(0)
	for k := 0; k < p.probe; k++ {
		s.do(c, s.srv.runURL(), request{key: lo + k, tier: "run"}, "probe-run", 0, false)
	}
	served := median(in(time.Microsecond, c.lat))
	var direct []time.Duration
	var skipped, engine int64
	for k := 0; k < p.probe; k++ {
		spec, err := specOf(s.keys[lo+k])
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := runPoint(spec); err != nil {
			return err
		}
		direct = append(direct, time.Since(start))
		// The served engine is out of reach, so the key population's
		// skipped-cycle share is read off direct builds of the same specs.
		r, err := tracedPoint(spec, func(_ string, f func()) { f() })
		if err != nil {
			return err
		}
		skipped, engine = skipped+r.Skipped, engine+r.EngineCycles
	}
	s.skippedShare = share(skipped, engine)
	ms.set("serve.run_overhead_us", served-median(in(time.Microsecond, direct)), p.probe)

	// Memory tier: the handler alone on a recorder, then over loopback.
	h := s.srv.handler()
	var handler []time.Duration
	hits := 50 * p.probe
	for i := 0; i < hits; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(s.keys[lo+i%p.probe]))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, time.Since(start))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cedar-Source") != "cache" {
			c.bad++
		}
	}
	c.lat = c.lat[:0]
	for i := 0; i < hits; i++ {
		s.do(c, s.srv.runURL(), request{key: lo + i%p.probe, tier: "cache"}, "probe-hit", 0, false)
	}
	c.http.CloseIdleConnections()
	hp50 := median(in(time.Microsecond, handler))
	ms.set("serve.handler_hit_us", hp50, hits)
	ms.set("serve.http_overhead_us", median(in(time.Microsecond, c.lat))-hp50, hits)
	for k := 0; k < c.bad; k++ {
		s.v.op("probe request failed verification")
	}
	return nil
}

// runServe is the serve workload's whole life in one process.
func runServe(cfg runConfig) (*result, error) {
	s := &serveRun{cfg: cfg, plan: cfg.servePlan()}
	defer s.close()
	setup, err := timeSetup(cfg.setupReps(), s.setup)
	if err != nil {
		return nil, err
	}
	if err := s.phases(); err != nil {
		return nil, err
	}
	res := newResult(cfg)
	cycles, busy, err := s.coldCycles()
	if err != nil {
		return nil, err
	}
	all := s.allLatencies()
	rate := float64(cycles) / 1000 / s.wall["cold"].Seconds()
	op := median(in(time.Millisecond, all))
	if !cfg.trace {
		ms := newMetricSet(endToEnd)
		ms.set("setup_s", setup, cfg.setupReps())
		ms.set("mallocs_per_op", float64(s.alloc)/float64(s.sent), s.sent)
		ms.set("alloc_kb_per_op", float64(s.bytes)/1024/float64(s.sent), s.sent)
		res.Detail = runTimings(rate, len(s.lat["cold"]), op, len(all))
		for _, name := range []string{"cold", "hot", "disk", "mixed"} {
			res.detail("phase_p50_ms."+name, median(in(time.Millisecond, s.lat[name])), "ms", len(s.lat[name]))
		}
		res.finish(ms, endToEnd, s.v)
		return res, nil
	}

	// The traced run: the same phases again on a fresh server, with a
	// span around every request.
	untracedWall := s.wall["cold"] + s.wall["hot"] + s.wall["disk"] + s.wall["mixed"]
	batches := batchWalls(s.lat["hot"], 500)
	ms := newMetricSet(perLayer)
	s.layerMetrics(ms)
	if err := s.probes(ms); err != nil {
		return nil, err
	}
	v := s.v
	s.tr = newTracer()
	if err := s.setup(); err != nil {
		return nil, err
	}
	if err := s.phases(); err != nil {
		return nil, err
	}
	v.add(s.v)
	if err := s.tr.writeChrome(cfg.tracePath()); err != nil {
		return nil, err
	}
	tracedWall := s.wall["cold"] + s.wall["hot"] + s.wall["disk"] + s.wall["mixed"]
	ms.set("sim.skipped_share", s.skippedShare, s.plan.probe)
	ms.set("sim.simcycles", float64(cycles), len(s.lat["cold"]))
	setBusyShares(ms, []pointResult{{Busy: busy}})
	setSpanShares(ms, s.tr)
	ms.set("noise.pass_iqr_share", iqrShare(batches), len(batches))
	ms.set("trace.overhead_share", tracedWall.Seconds()/untracedWall.Seconds()-1, 1)
	ms.merge(runTimings(rate, len(s.lat["cold"]), op, len(all)))
	rigs, err := runRigs(cfg, &v, false)
	if err != nil {
		return nil, err
	}
	ms.merge(rigs)
	res.finish(ms, perLayer, v)
	return res, nil
}

// batchWalls sums latencies in consecutive batches — the serve
// workload's stand-in for pass walls when reporting its noise floor.
func batchWalls(lat []time.Duration, size int) []float64 {
	var out []float64
	for i := 0; i+size <= len(lat); i += size {
		var sum time.Duration
		for _, d := range lat[i : i+size] {
			sum += d
		}
		out = append(out, sum.Seconds())
	}
	return out
}

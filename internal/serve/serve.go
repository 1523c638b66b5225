// Package serve is the experiment-serving daemon core behind cedarserve:
// an HTTP/JSON front end over the bench vocabulary. A client POSTs one
// experiment point — machine spec × workload spec × optional fault spec —
// and receives the deterministic outcome artifact as the response body.
//
// Three properties carry over from the rest of the module:
//
//   - Byte-determinism. The response body for a given request is computed
//     once, cached as bytes, and every later identical request is served
//     those exact bytes. A cached response is byte-identical to a fresh
//     simulation — the same invariant the -jobs equality gates pin,
//     extended across process restarts when Config.Store gives the
//     daemon a durable tier.
//   - Single flight. In-flight identical requests coalesce on the fleet
//     run cache, an in-memory memo: the first computes, the rest wait and
//     share the result. The first presenter of a key reads the durable
//     store before simulating and writes a simulated body to it after, so
//     lookups go memory, then disk, then simulate.
//   - Crash isolation. A panicking simulation is captured by the handler
//     and reported as a 500 error response; it poisons only the waiters
//     coalesced on the same key (the key stays retryable) and never
//     takes down the daemon.
//
// Admission is a bounded worker pool: at most Config.Jobs simulations run
// concurrently, enforced by a semaphore held for the simulation alone —
// coalesced waiters, cache hits and store reads and writes never hold a
// slot.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"

	"cedar/internal/bench"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/scope"
	"cedar/internal/store"
)

// SchemaVersion stamps every response body (and its cache key), so a
// response-shape change can never serve stale bytes from a store written
// by an older daemon.
const SchemaVersion = 1

// Config configures a Server.
type Config struct {
	// Jobs bounds concurrently running simulations; 0 means GOMAXPROCS.
	Jobs int
	// Store, when non-nil, is the durable tier under the in-process
	// response cache: responses survive daemon restarts through it.
	Store *store.Store
}

// Request is one submitted experiment point. The specs are exactly the
// bench campaign vocabulary; unknown fields are rejected so a typoed
// knob can never silently run the default configuration.
type Request struct {
	Machine  bench.MachineSpec  `json:"machine"`
	Workload bench.WorkloadSpec `json:"workload"`
	// Fault optionally injects a plan: Demo or an inline Plan. The
	// vocabulary names no file, so a client cannot make the daemon read
	// one.
	Fault *bench.FaultSpec `json:"fault,omitempty"`
	// Metrics filters the scope snapshot captured into the outcome by
	// name prefix; empty selects bench.DefaultMetrics.
	Metrics []string `json:"metrics,omitempty"`
}

// Response is the response body for a served experiment point.
type Response struct {
	Schema int `json:"schema"`
	// Key is the content address the response is cached and stored
	// under: the sha256 of the JSON of the schema version, the point and
	// the metric list. Equal keys guarantee byte-equal bodies.
	Key      string        `json:"key"`
	Machine  string        `json:"machine,omitempty"`
	Workload string        `json:"workload,omitempty"`
	Outcome  bench.Outcome `json:"outcome"`
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// Stats is a snapshot of the server's request counters.
type Stats struct {
	// Requests counts run submissions accepted for processing (past
	// decode and validation).
	Requests int64 `json:"requests"`
	// BadRequests counts submissions rejected with a 400.
	BadRequests int64 `json:"bad_requests"`
	// Simulations counts actual simulation executions — Requests minus
	// the lookups answered by the cache tiers.
	Simulations int64 `json:"simulations"`
	// Panics counts simulation panics converted into 500 responses.
	Panics int64 `json:"panics"`
	// WriteErrors counts responses whose body could not be written to
	// the client, such as one that hung up.
	WriteErrors int64 `json:"write_errors"`
	// Cache is the response cache's counter snapshot.
	Cache CacheStats `json:"cache"`
}

// CacheStats counts the response cache's two tiers: the in-memory memo's
// counters, and DiskHits, the subset of its Misses the durable store
// answered without simulating (Misses - DiskHits presentations
// simulated; always zero without a store). The embedding keeps the JSON
// object flat.
type CacheStats struct {
	fleet.CacheStats
	DiskHits int64
}

// Server computes and caches experiment responses. Create with New;
// serve its Handler.
type Server struct {
	cache *fleet.Cache
	store *store.Store
	sem   chan struct{}

	requests    atomic.Int64
	badRequests atomic.Int64
	simulations atomic.Int64
	panics      atomic.Int64
	writeErrors atomic.Int64
	diskHits    atomic.Int64
}

// runSpec is the simulation entry point — a package variable only so
// tests can substitute a panicking or counting implementation.
var runSpec = bench.RunSpec

// New builds a Server with a fresh response cache over cfg.Store, if
// any.
func New(cfg Config) *Server {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Server{
		cache: fleet.NewCache(),
		store: cfg.Store,
		sem:   make(chan struct{}, jobs),
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Load(),
		BadRequests: s.badRequests.Load(),
		Simulations: s.simulations.Load(),
		Panics:      s.panics.Load(),
		WriteErrors: s.writeErrors.Load(),
		Cache:       CacheStats{CacheStats: s.cache.Stats(), DiskHits: s.diskHits.Load()},
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/run    submit one experiment point, receive its Response
//	GET  /v1/stats  server and cache counters (operational, not cached)
//	GET  /healthz   liveness probe
//
// Any other method on these paths is a 405 from the mux's method
// patterns.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			s.writeErrors.Add(1)
		}
	})
	return mux
}

// handleRun decodes, validates and executes one submission. The compute
// path runs inline on the request goroutine through the fleet cache, so
// identical concurrent submissions coalesce; a simulation panic unwinds
// to the deferred recovery here and becomes a 500.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("simulation panicked: %v", p))
		}
	}()

	req, plan, metrics, err := s.decode(w, r)
	if err != nil {
		s.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.requests.Add(1)

	body, source, err := s.respond(req, plan, metrics)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The source tier travels in a header, never the body: bodies must
	// stay byte-identical whether computed, coalesced, or cache-served.
	w.Header().Set("X-Cedar-Source", source)
	if _, err := w.Write(body); err != nil {
		s.writeErrors.Add(1)
	}
}

// maxRequestBytes bounds a submission's body; the largest legitimate one,
// an inline fault plan, fits with room to spare.
const maxRequestBytes = 1 << 20

// decode parses and validates a submission — one JSON object of at most
// maxRequestBytes and nothing after it — resolving its fault plan and
// metric filter. All rejections are client errors.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (Request, *fault.Plan, []string, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// The object must be the whole body: the next token is its end.
		switch _, err = dec.Token(); err {
		case io.EOF:
			err = nil
		case nil:
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		return req, nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	if err := req.Machine.Validate(); err != nil {
		return req, nil, nil, err
	}
	if err := req.Workload.Validate(); err != nil {
		return req, nil, nil, err
	}
	var plan *fault.Plan
	if req.Fault != nil {
		if plan, err = req.Fault.Resolve(); err != nil {
			return req, nil, nil, err
		}
	}
	metrics := req.Metrics
	if len(metrics) == 0 {
		metrics = bench.DefaultMetrics
	}
	return req, plan, metrics, nil
}

// respond produces the response body for a validated submission — from
// the cache tiers when possible, by simulating otherwise — plus the tier
// it came from ("run" for a fresh simulation, "cache" for anything
// served without one: memory hit, coalesced wait, or durable store).
func (s *Server) respond(req Request, plan *fault.Plan, metrics []string) ([]byte, string, error) {
	key, err := requestKey(req, plan, metrics)
	if err != nil {
		return nil, "", err
	}
	computed := false
	job := fleet.Job[[]byte]{
		Key: key,
		// The first presenter of the key: the disk tier, then a
		// simulation whose body the disk tier keeps.
		Run: func(*scope.Hub) ([]byte, error) {
			if s.store != nil {
				if body, ok := s.store.Get(key); ok {
					s.diskHits.Add(1)
					return body, nil
				}
			}
			computed = true
			body, err := s.simulate(key, req, plan, metrics)
			if err == nil && s.store != nil {
				s.store.Put(key, body)
			}
			return body, err
		},
	}
	// res[0] is the cached slice itself, shared with every other request
	// for the key: the handler writes it to the socket and nothing more.
	res, err := fleet.Run(fleet.Config{Jobs: 1, Cache: s.cache}, []fleet.Job[[]byte]{job})
	if err != nil {
		return nil, "", err
	}
	source := "cache"
	if computed {
		source = "run"
	}
	return res[0], source, nil
}

// simulate runs a submission and encodes its response body. Admission:
// it holds a slot for the simulation alone, bounding concurrent
// simulations, not concurrent requests.
func (s *Server) simulate(key string, req Request, plan *fault.Plan, metrics []string) ([]byte, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.simulations.Add(1)
	out, err := runSpec(req.Machine, req.Workload, plan, metrics)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(Response{
		Schema:   SchemaVersion,
		Key:      key,
		Machine:  req.Machine.Name,
		Workload: req.Workload.Name,
		Outcome:  out,
	})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// requestKey is the content address a response is cached and stored
// under: the hex sha256 of the JSON encoding of everything the body
// depends on — the schema version, the point (both specs and the
// resolved fault plan) and the metric list. The names are spec fields
// and appear in the body, so equal keys mean byte-equal bodies. It fails
// only when a value has no JSON encoding (a fault kind without a name).
func requestKey(req Request, plan *fault.Plan, metrics []string) (string, error) {
	b, err := json.Marshal(struct {
		Schema  int         `json:"schema"`
		Point   bench.Point `json:"point"`
		Metrics []string    `json:"metrics"`
	}{SchemaVersion, bench.Point{Machine: req.Machine, Workload: req.Workload, Plan: plan}, metrics})
	if err != nil {
		return "", fmt.Errorf("serve: keying the request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// handleStats reports the server's counters. Operational data — the
// hit/coalesced split is timing-dependent, so this endpoint is never
// cached or byte-compared.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(s.Stats())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.writeErrors.Add(1)
	}
}

// writeError sends a JSON error envelope with the given status.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := json.Marshal(errorBody{Error: msg})
	if err != nil {
		// A string field cannot fail to marshal; guard anyway.
		body = []byte(`{"error":"internal"}`)
	}
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.writeErrors.Add(1)
	}
}

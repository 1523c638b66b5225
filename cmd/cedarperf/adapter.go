package main

// adapter.go is the one seam between cedarperf and the simulator: every
// import of cedar/internal/... lives in this file (seam_test.go enforces
// it), so a refactor of those APIs meets the benchmark in exactly one
// place. The rest of the package speaks plain values — pointSpec,
// pointResult, closures — and never names an internal type.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"cedar/internal/bench"
	"cedar/internal/cache"
	"cedar/internal/cmem"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/fleet"
	"cedar/internal/gmem"
	"cedar/internal/kernels"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/prefetch"
	"cedar/internal/scope"
	"cedar/internal/serve"
	"cedar/internal/sim"
	"cedar/internal/store"
)

// pointSpec is one experiment point in plain values: a machine preset ×
// a kernel workload × (healthy | demo fault plan). It mirrors the bench
// spec vocabulary without importing it.
type pointSpec struct {
	Name string
	// Machine is "cedar" (paper machine), "cedar-xbar" (crossbar fabric),
	// "cedar16" or "cedar64" (scale-up presets).
	Machine string
	Kind    string
	Variant string
	N       int
	Sweeps  int
	Iters   int
	BW      int
	CEs     int
	Stride  int
	Gap     int
	Faults  bool
}

// pointResult is what verification needs from one run.
type pointResult struct {
	Status string
	Cycles int64
	// Skipped and EngineCycles are the engine's fast-forwarded and total
	// cycle counts (program plus drain); traced path only.
	Skipped      int64
	EngineCycles int64
	Flops        int64
	// Bytes is the canonical outcome encoding compared across passes.
	Bytes []byte
	// Busy is the busy-cycle total per component class (simulated time).
	Busy []classBusy
}

type classBusy struct {
	Class   string
	Busy    int64
	Elapsed int64
}

func (p pointSpec) machine() bench.MachineSpec {
	switch p.Machine {
	case "cedar-xbar":
		return bench.MachineSpec{Name: p.Machine, Fabric: "crossbar"}
	case "cedar16":
		return bench.MachineSpec{Name: p.Machine, Scaled: 16}
	case "cedar64":
		return bench.MachineSpec{Name: p.Machine, Scaled: 64}
	}
	return bench.MachineSpec{Name: p.Machine}
}

func (p pointSpec) workload() bench.WorkloadSpec {
	return bench.WorkloadSpec{Name: p.Name, Kind: p.Kind, N: p.N, Variant: p.Variant,
		Sweeps: p.Sweeps, Iters: p.Iters, BW: p.BW, CEs: p.CEs, Stride: p.Stride, Gap: p.Gap}
}

func (p pointSpec) plan() *fault.Plan {
	if p.Faults {
		return fault.DemoPlan()
	}
	return nil
}

// nominalFlops returns the kernel's own flop formula for the point, or
// 0 when the kernel publishes none.
func (p pointSpec) nominalFlops() int64 {
	switch p.Kind {
	case "cg":
		return kernels.CGFlops(kernels.CGConfig{N: p.N, Iters: p.Iters})
	case "banded":
		return kernels.BandedFlopsCedar(kernels.BandedConfig{N: p.N, BW: p.BW})
	}
	return 0
}

func outcomeResult(out bench.Outcome) (pointResult, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return pointResult{}, err
	}
	r := pointResult{Status: out.Status, Cycles: out.SimCycles, Flops: out.Flops, Bytes: b}
	for _, a := range out.Attribution {
		r.Busy = append(r.Busy, classBusy{Class: a.Class, Busy: a.Busy, Elapsed: a.Elapsed})
	}
	return r, nil
}

// runPoint is the untraced path: one call into bench.RunSpec.
func runPoint(p pointSpec) (pointResult, error) {
	out, err := bench.RunSpec(p.machine(), p.workload(), p.plan(), nil)
	if err != nil {
		return pointResult{}, err
	}
	return outcomeResult(out)
}

// suiteSpec is one Perfect-proxy run: a code × variant × ablations.
type suiteSpec struct {
	Name    string
	Code    string // "QCD" or "TRACK"
	Variant string // "serial", "kap", "auto", "hand"
	NoSync  bool
	NoPref  bool
	// Reps overrides the profile's slice count: the proxy simulates one
	// slice of Flops/Reps, so a larger Reps is a shorter run.
	Reps int
}

func (s suiteSpec) resolve() (perfect.Profile, perfect.Spec, error) {
	var prof perfect.Profile
	switch s.Code {
	case "QCD":
		prof = perfect.QCD()
	case "TRACK":
		prof = perfect.TRACK()
	default:
		return prof, perfect.Spec{}, fmt.Errorf("cedarperf: unknown Perfect code %q", s.Code)
	}
	if s.Reps > 0 {
		prof.Reps = s.Reps
	}
	spec := perfect.Spec{NoSync: s.NoSync, NoPref: s.NoPref}
	switch s.Variant {
	case "serial":
		spec.Variant = perfect.Serial
	case "kap":
		spec.Variant = perfect.KAP
	case "auto":
		spec.Variant = perfect.Auto
	case "hand":
		spec.Variant = perfect.Hand
	default:
		return prof, spec, fmt.Errorf("cedarperf: unknown Perfect variant %q", s.Variant)
	}
	return prof, spec, nil
}

// paperReps returns the slice count the paper profile ships with.
func paperReps(code string) int {
	prof, _, err := suiteSpec{Code: code, Variant: "serial"}.resolve()
	if err != nil {
		return 0
	}
	return prof.Reps
}

// runSuite executes one Perfect variant on a fresh paper machine.
func runSuite(s suiteSpec) (pointResult, error) {
	prof, spec, err := s.resolve()
	if err != nil {
		return pointResult{}, err
	}
	out, err := perfect.Run(params.Default(), prof, spec)
	if err != nil {
		return pointResult{}, err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return pointResult{}, err
	}
	return pointResult{Status: "ok", Cycles: out.SimCycles, Bytes: b}, nil
}

// served is a cedarserve instance under test: a durable store, the
// serve.Server over it, and a loopback HTTP listener.
type served struct {
	st  *store.Store
	srv *serve.Server
	ts  *httptest.Server
}

// serveCounts is the server- and store-side view of a phase, read from
// their public Stats.
type serveCounts struct {
	Simulations int64
	DiskHits    int64
	Evictions   int64
	StoreErrors int64
	Entries     int
}

// openServer opens (or reopens) the store at dir with the byte budget
// and starts a server with the given simulation concurrency over it.
func openServer(dir string, maxBytes int64, jobs int) (*served, error) {
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Jobs: jobs, Store: st})
	return &served{st: st, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *served) runURL() string        { return s.ts.URL + "/v1/run" }
func (s *served) handler() http.Handler { return s.srv.Handler() }
func (s *served) close()                { s.ts.Close() }

func (s *served) counts() serveCounts {
	sv, st := s.srv.Stats(), s.st.Stats()
	return serveCounts{Simulations: sv.Simulations, DiskHits: sv.Cache.DiskHits,
		Evictions: st.Evictions, StoreErrors: st.Errors, Entries: s.st.Len()}
}

// requestBody encodes a point as a POST /v1/run submission.
func requestBody(p pointSpec) ([]byte, error) {
	req := serve.Request{Machine: p.machine(), Workload: p.workload()}
	if p.Faults {
		req.Fault = &bench.FaultSpec{Name: "demo", Demo: true}
	}
	return json.Marshal(req)
}

// fillStore puts n blobs of the given size under distinct keys into the
// store at dir (unbounded budget) — the pre-filled template a serve run
// starts from. put, when non-nil, observes each Put's index.
func fillStore(dir string, n, blobBytes int, put func(i int, do func())) (bytes int64, err error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return 0, err
	}
	blob := make([]byte, blobBytes)
	for i := 0; i < n; i++ {
		// Distinct content per key, as real response bodies have.
		copy(blob, fmt.Sprintf("{\"template\":%d}", i))
		key := fmt.Sprintf("template:%08d", i)
		if put != nil {
			put(i, func() { st.Put(key, blob) })
		} else {
			st.Put(key, blob)
		}
	}
	if e := st.Stats().Errors; e > 0 {
		return 0, fmt.Errorf("cedarperf: %d store errors filling %s", e, dir)
	}
	return st.Bytes(), nil
}

// tracedPoint is the traced path for one point: the same machine build
// and kernel call bench.RunSpec makes, taken apart so each layer call
// can sit inside its own span. span wraps a named call.
func tracedPoint(p pointSpec, span func(name string, f func())) (pointResult, error) {
	ms, ws := p.machine(), p.workload()
	if err := ms.Validate(); err != nil {
		return pointResult{}, err
	}
	fabric := core.FabricOmega
	if ms.Fabric == "crossbar" {
		fabric = core.FabricCrossbar
	}
	plan := p.plan()
	hub := scope.NewHub()
	var m *core.Machine
	var err error
	span("core.New", func() {
		m, err = core.New(ms.Params(), core.Options{Fabric: fabric, Scope: hub, Faults: plan, NoFaults: plan == nil})
	})
	if err != nil {
		return pointResult{}, err
	}
	var res kernels.Result
	span("kernels."+p.Kind, func() { res, err = runKernel(m, ws) })
	r := pointResult{Status: "ok", Cycles: res.Cycles, Flops: res.Flops}
	switch {
	case err == nil:
	case errors.Is(err, fault.ErrDegraded):
		r.Status = "degraded"
		if r.Cycles == 0 {
			r.Cycles = m.Engine.Cycle()
		}
	default:
		return pointResult{}, err
	}
	r.Skipped = m.Engine.FastForwarded()
	r.EngineCycles = m.Engine.Cycle()
	span("scope.snapshot", func() {
		hub.Snapshot()
		for _, a := range hub.Attribution() {
			r.Busy = append(r.Busy, classBusy{Class: a.Class, Busy: a.Busy, Elapsed: a.Elapsed})
		}
	})
	return r, nil
}

// runKernel dispatches a workload spec to its kernel with the defaults
// bench documents on WorkloadSpec. The traced path needs the machine in
// hand (for Engine.FastForwarded), which bench.RunSpec does not expose;
// the cycles it returns are asserted equal to the RunSpec path.
func runKernel(m *core.Machine, w bench.WorkloadSpec) (kernels.Result, error) {
	switch w.Kind {
	case "rank":
		mode := kernels.RKPref
		switch w.Variant {
		case "nopref":
			mode = kernels.RKNoPref
		case "cache":
			mode = kernels.RKCache
		}
		return kernels.RankUpdate(m, w.N, mode)
	case "vectorload":
		return kernels.VectorLoad(m, w.N, max(w.Sweeps, 1))
	case "trimat":
		return kernels.TriMat(m, w.N)
	case "cg":
		return kernels.CG(m, kernels.CGConfig{N: w.N, Iters: w.Iters, MaxCEs: w.MaxCEs})
	case "banded":
		return kernels.Banded(m, kernels.BandedConfig{N: w.N, BW: w.BW, MaxCEs: w.MaxCEs})
	case "membw":
		pt, err := kernels.MemBW(m, max(w.CEs, 1), int64(max(w.Stride, 1)), w.N)
		return kernels.Result{Result: core.Result{Cycles: pt.Cycles}}, err
	case "latency":
		return kernels.LoadLatency(m, w.N, int64(w.Gap))
	}
	return kernels.Result{}, fmt.Errorf("cedarperf: unknown workload kind %q", w.Kind)
}

// tracedSuite runs one Perfect variant under a hub so the run's
// attribution is readable; perfect.Run builds its machine internally,
// so the engine's fast-forward count is not observable from outside.
func tracedSuite(s suiteSpec, span func(name string, f func())) (pointResult, error) {
	prof, spec, err := s.resolve()
	if err != nil {
		return pointResult{}, err
	}
	hub := scope.NewHub()
	var out perfect.Outcome
	span("perfect.Run", func() { out, err = perfect.Run(params.Default(), prof, spec, hub) })
	if err != nil {
		return pointResult{}, err
	}
	r := pointResult{Status: "ok", Cycles: out.SimCycles, EngineCycles: out.SimCycles}
	span("scope.snapshot", func() {
		for _, a := range hub.Attribution() {
			r.Busy = append(r.Busy, classBusy{Class: a.Class, Busy: a.Busy, Elapsed: a.Elapsed})
		}
	})
	return r, nil
}

// withShards runs f with the process-wide engine shard bound set to n
// and restores the previous bound on every path out, panics included.
func withShards(n int, f func()) {
	prev := sim.Shards()
	sim.SetShards(n)
	defer sim.SetShards(prev)
	f()
}

// dispatch runs fns through the fleet pool at the given worker count
// against a fresh private run cache — never the process-wide one, which
// would turn every pass after the first into pure hits — and returns
// the results in submission order with the cache's miss count.
func dispatch(jobs int, keys []string, fns []func() (pointResult, error)) ([]pointResult, int64, error) {
	cache := fleet.NewCache()
	fj := make([]fleet.Job[pointResult], len(fns))
	for i, fn := range fns {
		fj[i] = fleet.Job[pointResult]{
			Key: fleet.Key("cedarperf", keys[i]),
			Run: func(*scope.Hub) (pointResult, error) { return fn() },
		}
	}
	res, err := fleet.Run(fleet.Config{Jobs: jobs, Cache: cache}, fj)
	return res, cache.Stats().Misses, err
}

// ---- layer rigs -----------------------------------------------------
//
// Each rig drives one layer alone through its public functions. prepare
// builds the rig (untimed) and returns drive, which runs the fixed work
// once and reports the units done — simulated cycles unless the metric
// name says otherwise — plus an exact useful/attempted ratio where the
// layer can waste work.

type rigCount struct {
	Units    int64
	Num, Den int64
}

type layerRig struct {
	Metric  string // ns-per-unit metric name
	Ratio   string // exact ratio metric name, "" when none
	Prepare func() (drive func() rigCount)
}

// xorshift is the rigs' traffic generator: seeded, allocation-free and
// cheap enough not to show in a per-cycle measurement.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func newXorshift(seed int64, salt uint64) xorshift {
	return xorshift(uint64(seed)*0x9e3779b97f4a7c15 ^ salt | 1)
}

func paperOmega(name string, p params.Machine) *network.Omega {
	return network.NewOmega(network.OmegaConfig{Name: name, Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
}

func omegaStages(p params.Machine) int {
	stages := 0
	for n := p.NetPorts; n > 1; n /= p.NetRadix {
		stages++
	}
	return stages
}

// fabricRig offers one read request per ingress port every period
// cycles (the destination drawn by dst), ticks the fabric and polls
// every egress port: Offer/Tick/Poll at paper radix, nothing else in
// the loop. Period 2 is half load, which both fabrics carry without a
// growing backlog; period 1 saturates.
func fabricRig(f network.Fabric, cycles, period int64, dst func() int) func() rigCount {
	var pool network.PacketPool
	var c int64 // the fabric's clock persists across drives
	return func() rigCount {
		var offered, accepted int64
		ports := f.Ports()
		for end := c + cycles; c < end; c++ {
			for src := 0; src < ports; src++ {
				if (c+int64(src))%period != 0 {
					continue
				}
				pkt := pool.Get()
				pkt.Kind, pkt.Src, pkt.Dst, pkt.Issue = network.ReadReq, src, dst(), c
				offered++
				if f.Offer(pkt) {
					accepted++
				} else {
					pool.Put(pkt)
				}
			}
			f.Tick(c)
			for port := 0; port < ports; port++ {
				for pkt := f.Poll(port); pkt != nil; pkt = f.Poll(port) {
					pool.Put(pkt)
				}
			}
		}
		return rigCount{Units: cycles, Num: accepted, Den: offered}
	}
}

// memDriver stands in for the CEs in the memory rigs: each CE port
// keeps a few read requests in flight, recycling the packet the memory
// rewrote into the reply.
type memDriver struct {
	fwd, rev network.Fabric
	ports    []int
	free     [][]*network.Packet
	next     []uint64
	stride   uint64
	modFor   func(uint64) int
	replies  int64
}

func (d *memDriver) Name() string { return "driver" }

func (d *memDriver) Tick(cycle int64) {
	for i, port := range d.ports {
		for pkt := d.rev.Poll(port); pkt != nil; pkt = d.rev.Poll(port) {
			d.replies++
			d.free[i] = append(d.free[i], pkt)
		}
		n := len(d.free[i])
		if n == 0 {
			continue
		}
		pkt := d.free[i][n-1]
		*pkt = network.Packet{Kind: network.ReadReq, Src: port, Dst: d.modFor(d.next[i]), Addr: d.next[i], Issue: cycle}
		if d.fwd.Offer(pkt) {
			d.free[i] = d.free[i][:n-1]
			d.next[i] += d.stride
		}
	}
}

// echoMemory is the carrier-only baseline of the memory rigs: it turns
// every request around at the module port with no bank pipeline, so the
// two fabrics' cost is measured on the same traffic.
type echoMemory struct {
	fwd, rev network.Fabric
	ports    []int
	held     []*network.Packet
}

func (e *echoMemory) Name() string { return "echo" }

func (e *echoMemory) Tick(int64) {
	for i, port := range e.ports {
		if e.held[i] == nil {
			pkt := e.fwd.Poll(port)
			if pkt == nil {
				continue
			}
			pkt.Kind, pkt.Src, pkt.Dst = network.ReadReply, pkt.Dst, pkt.Src
			e.held[i] = pkt
		}
		if e.rev.Offer(e.held[i]) {
			e.held[i] = nil
		}
	}
}

// memoryRig wires driver → fwd → memory → rev in the machine's tick
// order. stride 1 streams across every module; stride = module count
// aims each port's whole stream at one module. carrier swaps the memory
// for echoMemory.
func memoryRig(p params.Machine, cycles int64, stride uint64, carrier bool) func() rigCount {
	fwd, rev := paperOmega("fwd", p), paperOmega("rev", p)
	mem := gmem.New(p, fwd, rev, nil)
	ceStride := max(p.NetPorts/p.CEs(), 1)
	d := &memDriver{fwd: fwd, rev: rev, stride: stride, modFor: mem.ModuleFor}
	for i := 0; i < p.CEs(); i++ {
		d.ports = append(d.ports, i*ceStride)
		pkts := make([]*network.Packet, 4)
		for k := range pkts {
			pkts[k] = new(network.Packet)
		}
		d.free = append(d.free, pkts)
		// Regions are module-aligned, so with the conflict stride every
		// port hammers the same module, as the characterization did.
		d.next = append(d.next, uint64(i)<<20)
	}
	eng := sim.New()
	if carrier {
		e := &echoMemory{fwd: fwd, rev: rev, held: make([]*network.Packet, mem.Modules())}
		for i := 0; i < mem.Modules(); i++ {
			e.ports = append(e.ports, mem.PortOf(i))
		}
		eng.Register(d, fwd, e, rev)
	} else {
		eng.Register(d, fwd, mem, rev)
	}
	return func() rigCount {
		before := d.replies
		eng.Run(cycles)
		return rigCount{Units: cycles, Num: d.replies - before, Den: cycles}
	}
}

type countSink struct{ done int64 }

func (s *countSink) CacheDone(uint64, int64) { s.done++ }

// cacheRig streams word reads from every CE of one cluster into the
// shared cache over its cluster memory. With hit the streams loop over
// one warmed line each; otherwise every fourth access opens a fresh
// line, so the miss path (MSHR, cluster memory, fill, eviction) runs
// beside the hits and the hit ratio says whether the hot lines survive.
func cacheRig(p params.Machine, cycles int64, hit bool) func() rigCount {
	cm := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
	c := cache.New(p, p.CEsPerCluster, cm)
	lineWords := uint64(p.CacheLineBytes / params.WordBytes)
	sink := &countSink{}
	pos := make([]uint64, p.CEsPerCluster)
	var cy int64
	return func() rigCount {
		h0, m0 := c.Stats().Hits, c.Stats().Misses
		for end := cy + cycles; cy < end; cy++ {
			for ce := range pos {
				// Regions start 64 lines apart so the streams land in
				// different sets and never evict one another.
				base := uint64(ce)<<24 + uint64(ce)*64*lineWords
				addr := base + pos[ce]%lineWords
				if !hit && pos[ce]%4 == 3 {
					addr = base + (1+pos[ce]/4)*lineWords
				}
				if c.Submit(ce, addr, false, 0, sink, 0) {
					pos[ce]++
				}
			}
			c.Tick(cy)
			cm.Tick(cy)
		}
		st := c.Stats()
		hits, misses := st.Hits-h0, st.Misses-m0
		return rigCount{Units: cycles, Num: hits, Den: hits + misses}
	}
}

// prefetchRig arms and fires full-buffer blocks on one PFU over the
// memory rig's fabrics, with a drainer in the CE's place.
func prefetchRig(p params.Machine, cycles int64) func() rigCount {
	fwd, rev := paperOmega("fwd", p), paperOmega("rev", p)
	mem := gmem.New(p, fwd, rev, nil)
	pool := &network.PacketPool{}
	pfu := prefetch.New(p, 0, fwd, mem.ModuleFor, pool)
	eng := sim.New()
	eng.Register(sim.Func{ID: "ce0", F: func(cycle int64) {
		for pkt := rev.Poll(0); pkt != nil; pkt = rev.Poll(0) {
			pfu.Deliver(pkt, cycle)
			pool.Put(pkt)
		}
		if pfu.Suspended() {
			pfu.Resume(pfu.PendingAddr())
		}
		pfu.Tick(cycle)
	}}, fwd, mem, rev)
	var addr uint64
	return func() rigCount {
		start := eng.Cycle()
		var blocks, words int64
		for eng.Cycle()-start < cycles {
			if err := pfu.Arm(p.PFUBufferWords, 1, nil); err != nil {
				panic(err)
			}
			if err := pfu.Fire(addr); err != nil {
				panic(err)
			}
			if err := eng.RunUntil(pfu.Done, 1<<20); err != nil {
				panic(err)
			}
			addr += uint64(p.PFUBufferWords)
			blocks++
			words += int64(p.PFUBufferWords)
		}
		return rigCount{Units: eng.Cycle() - start, Num: words, Den: eng.Cycle() - start}
	}
}

// layerRigs lists the ns-per-cycle rigs. cycles is the simulated length
// of one drive; seed picks the traffic.
func layerRigs(seed, cycles int64) []layerRig {
	p := params.Default()
	const comps = 256
	return []layerRig{
		{Metric: "sim.step_ns_per_tick", Prepare: func() func() rigCount {
			eng := sim.New()
			var ticks int64
			for i := 0; i < comps; i++ {
				eng.Register(sim.Func{ID: "awake", F: func(int64) { ticks++ }})
			}
			return func() rigCount {
				before := ticks
				eng.Run(cycles)
				return rigCount{Units: ticks - before}
			}
		}},
		{Metric: "sim.wheel_ns_per_wake", Prepare: func() func() rigCount {
			eng := sim.New()
			rng := newXorshift(seed, 1)
			var wakes int64
			for i := 0; i < comps; i++ {
				next := int64(rng.next() % 4096)
				eng.Register(sim.SchedFunc{ID: "sleeper",
					F: func(c int64) {
						if c >= next {
							wakes++
							next = c + 1 + int64(rng.next()%4096)
						}
					},
					W: func(now int64) int64 { return max(next, now) },
				})
			}
			return func() rigCount {
				target := wakes + cycles
				if err := eng.RunUntil(func() bool { return wakes >= target }, 1<<40); err != nil {
					panic(err)
				}
				return rigCount{Units: cycles}
			}
		}},
		{Metric: "sim.barrier_ns_per_cycle", Prepare: func() func() rigCount {
			var eng *sim.Engine
			withShards(2, func() { eng = sim.New() })
			for shard := 0; shard < 2; shard++ {
				for i := 0; i < p.CEsPerCluster; i++ {
					eng.RegisterShard(shard, sim.Func{ID: "empty", F: func(int64) {}})
				}
			}
			return func() rigCount {
				eng.Run(cycles)
				return rigCount{Units: cycles}
			}
		}},
		{Metric: "network.omega_uniform_ns_per_cycle", Prepare: func() func() rigCount {
			rng := newXorshift(seed, 2)
			return fabricRig(paperOmega("fwd", p), cycles/4, 2, func() int { return int(rng.next() % uint64(p.NetPorts)) })
		}},
		{Metric: "network.omega_hotspot_ns_per_cycle", Ratio: "network.omega_hotspot_accept_ratio", Prepare: func() func() rigCount {
			rng := newXorshift(seed, 3)
			hot := int(rng.next() % uint64(p.NetPorts))
			return fabricRig(paperOmega("fwd", p), cycles, 1, func() int { return hot })
		}},
		{Metric: "network.crossbar_uniform_ns_per_cycle", Prepare: func() func() rigCount {
			rng := newXorshift(seed, 4)
			return fabricRig(network.NewCrossbar("fwd", p.NetPorts, omegaStages(p)), cycles/4, 2, func() int { return int(rng.next() % uint64(p.NetPorts)) })
		}},
		{Metric: "gmem.stream_ns_per_cycle", Prepare: func() func() rigCount { return memoryRig(p, cycles/4, 1, false) }},
		{Metric: "gmem.conflict_ns_per_cycle", Prepare: func() func() rigCount {
			return memoryRig(p, cycles/4, uint64(p.MemModules), false)
		}},
		{Metric: "gmem.carrier_ns_per_cycle", Prepare: func() func() rigCount { return memoryRig(p, cycles/4, 1, true) }},
		{Metric: "cache.hit_ns_per_cycle", Prepare: func() func() rigCount { return cacheRig(p, cycles, true) }},
		{Metric: "cache.miss_ns_per_cycle", Ratio: "cache.hit_ratio", Prepare: func() func() rigCount { return cacheRig(p, cycles, false) }},
		{Metric: "prefetch.block_ns_per_cycle", Prepare: func() func() rigCount { return prefetchRig(p, cycles) }},
	}
}

// buildMachine builds and discards one healthy machine of the preset —
// the core.New cost every point and every run-tier request pays.
func buildMachine(preset string) error {
	ms := pointSpec{Machine: preset}.machine()
	_, err := core.New(ms.Params(), core.Options{NoFaults: true})
	return err
}

// fleetKey, fleetDispatchNoop and fleetHitter expose the fleet layer's
// three small costs: keying, a pool dispatch of no-op jobs, and a cache
// hit including the deep copy of a realistic Outcome.
func fleetKey(p pointSpec) string {
	return fleet.Key("cedarperf", p.machine(), p.workload(), "")
}

func fleetDispatchNoop(jobs, n int) error {
	fj := make([]fleet.Job[int], n)
	for i := range fj {
		fj[i] = fleet.Job[int]{Run: func(*scope.Hub) (int, error) { return i, nil }}
	}
	_, err := fleet.Run(fleet.Config{Jobs: jobs, Cache: fleet.NewCache()}, fj)
	return err
}

// fleetHitter returns a function that presents an already cached keyed
// job to a private cache: one lookup, one hit, one deep copy.
func fleetHitter(p pointSpec) (func() error, error) {
	out, err := bench.RunSpec(p.machine(), p.workload(), p.plan(), nil)
	if err != nil {
		return nil, err
	}
	cache := fleet.NewCache()
	job := []fleet.Job[bench.Outcome]{{
		Key: fleetKey(p),
		Run: func(*scope.Hub) (bench.Outcome, error) { return out, nil },
	}}
	hit := func() error {
		_, err := fleet.Run(fleet.Config{Jobs: 1, Cache: cache}, job)
		return err
	}
	return hit, hit()
}

// storeRig is an open store for the store-layer timings.
type storeRig struct{ st *store.Store }

func openStore(dir string, maxBytes int64) (storeRig, error) {
	st, err := store.Open(dir, maxBytes)
	return storeRig{st}, err
}

func (s storeRig) get(key string) bool      { _, ok := s.st.Get(key); return ok }
func (s storeRig) put(key string, b []byte) { s.st.Put(key, b) }
func (s storeRig) errors() int64            { return s.st.Stats().Errors }

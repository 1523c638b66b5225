// Package core assembles the Cedar machine: four (or a configured number
// of) slightly modified Alliant FX/8 clusters — each with eight CEs, a
// shared four-way interleaved cache, a cluster memory and a concurrency
// control bus — connected through two unidirectional multistage
// shuffle-exchange networks to a globally shared memory whose modules
// carry synchronization processors.
//
// core is the paper's primary artifact. Everything else in internal/ is a
// subsystem of this machine or an instrument pointed at it.
package core

import (
	"fmt"
	"strings"

	"cedar/internal/cache"
	"cedar/internal/ccbus"
	"cedar/internal/ce"
	"cedar/internal/cmem"
	"cedar/internal/fault"
	"cedar/internal/gmem"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/perfmon"
	"cedar/internal/scope"
	"cedar/internal/sim"
)

// FabricKind selects the interconnection network implementation.
type FabricKind int

// Supported fabrics.
const (
	// FabricOmega is Cedar's multistage shuffle-exchange network with
	// shallow two-word port queues (the machine as built).
	FabricOmega FabricKind = iota
	// FabricCrossbar is an idealized non-blocking crossbar used for the
	// [Turn93] ablation: same port bandwidth, no internal structure.
	FabricCrossbar
)

// Options tune machine construction beyond the parameter set.
type Options struct {
	Fabric FabricKind
	// Scope, when non-nil, is the observability hub every component
	// publishes metrics, trace spans, and cycle attribution on. Nil (the
	// default) builds an uninstrumented machine at zero overhead.
	Scope *scope.Hub
	// Faults, when non-nil, is the fault plan this machine runs under;
	// nil builds a healthy machine. NoFaults ignores Faults.
	Faults   *fault.Plan
	NoFaults bool
	// Stepped builds the reference machine of the equivalence gates: every
	// component is registered through sim.Plain, so the engine ticks all of
	// them every cycle and never jumps. Results are byte-identical to the
	// event-wheel machine's; only the host time differs.
	Stepped bool
}

// Cluster is one Alliant FX/8.
type Cluster struct {
	ID    int
	Bus   *ccbus.Bus
	Cache *cache.Cache
	CMem  *cmem.Memory
	CEs   []*ce.CE

	nextLocal uint64
}

// AllocLocal reserves words of cluster memory and returns the base
// address (cluster address spaces are private per cluster).
func (c *Cluster) AllocLocal(words int) uint64 {
	base := c.nextLocal
	c.nextLocal += uint64(words)
	return base
}

// Machine is a configured Cedar system.
type Machine struct {
	P        params.Machine
	Engine   *sim.Engine
	Fwd, Rev network.Fabric
	Mem      *gmem.Memory
	Clusters []*Cluster
	CEs      []*ce.CE
	// Scope is the observability hub the machine was built with (nil when
	// observability is off). The runtime picks it up automatically.
	Scope *scope.Hub
	// Faults is the machine's fault injector; nil on healthy machines.
	Faults *fault.Injector

	stepped    bool
	nextGlobal uint64
	flopsBase  int64
	// pool is the packet pool every CE and PFU of the machine shares.
	pool network.PacketPool
}

// register appends cs to the engine's tick order — through sim.Plain on
// a stepped machine — and returns their wake handles.
func (m *Machine) register(cs ...sim.Component) []sim.Handle {
	if m.stepped {
		for i, c := range cs {
			cs[i] = sim.Plain(c)
		}
	}
	return m.Engine.Register(cs...)
}

// New builds a machine. It returns an error for invalid parameter sets.
//
// A machine costs the host a number of objects set by its element types,
// not by its element counts: CEs (with their PFUs inside), clusters and
// the CE pointer tables are one slab each, every component is registered
// in one call, wakers are sim.Handle values and the CEs share one packet
// pool (DESIGN.md, "Demand-materialised state"). Only the per-cluster
// cache, cluster memory and bus constructors still allocate per cluster.
func New(p params.Machine, opt Options) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}

	var fwd, rev network.Fabric
	switch opt.Fabric {
	case FabricOmega:
		fwd = network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
		// The reverse network's egress ports empty into the CEs' 512-word
		// prefetch buffers, which absorb reply bursts; the forward
		// egress is a memory module's small input latch.
		rev = network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords, EgressWords: 64})
	case FabricCrossbar:
		// Latency matched to the omega's stage count for a fair ablation.
		stages := 0
		for n := p.NetPorts; n > 1; n /= p.NetRadix {
			stages++
		}
		fwd = network.NewCrossbar("fwd", p.NetPorts, stages)
		rev = network.NewCrossbar("rev", p.NetPorts, stages)
	default:
		return nil, fmt.Errorf("core: unknown fabric kind %d", opt.Fabric)
	}

	m := &Machine{P: p, Engine: sim.New(), Fwd: fwd, Rev: rev, Scope: opt.Scope, stepped: opt.Stepped}
	m.Mem = gmem.New(p, fwd, rev, nil)

	if !opt.NoFaults && opt.Faults != nil {
		inj, err := fault.NewInjector(p, opt.Faults)
		if err != nil {
			return nil, err
		}
		m.Faults = inj
		if inj != nil {
			inj.SetScope(opt.Scope)
			m.Mem.SetFaults(inj)
			fwd.SetFaults(inj)
			rev.SetFaults(inj)
		}
	}

	// CEs are spread across the port space for the same reason the memory
	// modules are: destination tags must exercise every switch output
	// digit or reply traffic funnels through a few first-stage outputs.
	ceStride := max(p.NetPorts/p.CEs(), 1)
	modFor := m.Mem.ModuleFor
	ces, clusters := make([]ce.CE, p.CEs()), make([]Cluster, p.Clusters)
	m.CEs, m.Clusters = make([]*ce.CE, len(ces)), make([]*Cluster, len(clusters))
	// The tick order: each cluster's CEs, then the cluster's cache and
	// memory (which the CEs submit to), then the fabrics and the global
	// memory between them.
	order := make([]sim.Component, 0, len(ces)+len(clusters)+3)
	for cl := range clusters {
		cm := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
		cc := cache.New(p, p.CEsPerCluster, cm)
		lo, hi := cl*p.CEsPerCluster, (cl+1)*p.CEsPerCluster
		cluster := &clusters[cl]
		*cluster = Cluster{ID: cl, Bus: ccbus.New(p, p.CEsPerCluster), Cache: cc, CMem: cm, CEs: m.CEs[lo:hi:hi]}
		m.Clusters[cl] = cluster
		for id := lo; id < hi; id++ {
			c := &ces[id]
			*c = ce.New(p, id, cl, id-lo, id*ceStride, fwd, rev, cc, modFor, &m.pool)
			if m.Faults.Retryable() {
				// Only recoverable faults (NACKs, drops) arm the retry
				// machinery: timeout watchdogs under a stall-only plan
				// would add behavior the plan doesn't call for.
				c.ArmFaultRecovery()
			}
			m.CEs[id] = c
			rev.SetPortSink(c.Port, c)
			order = append(order, c)
		}
		order = append(order, (*clusterTick)(cluster))
	}
	hs := m.register(append(order, fwd, m.Mem, rev)...)
	for cl, cluster := range m.Clusters {
		base := cl * (p.CEsPerCluster + 1)
		for i, c := range cluster.CEs {
			c.SetWaker(hs[base+i])
		}
		cluster.Cache.SetWaker(hs[base+p.CEsPerCluster])
		cluster.CMem.SetWaker(hs[base+p.CEsPerCluster])
	}
	hs = hs[len(order):]
	fwd.SetWaker(hs[0])
	m.Mem.SetWaker(hs[1])
	rev.SetWaker(hs[2])
	m.instrument()
	return m, nil
}

// clusterTick is a cluster as the engine sees it: its cache and cluster
// memory ticking as one component, the cache ahead of the memory behind
// it. It is a conversion of *Cluster, so registering it allocates nothing.
type clusterTick Cluster

// Name implements sim.Component.
func (c *clusterTick) Name() string { return fmt.Sprintf("cluster%d", c.ID) }

// Tick implements sim.Component.
func (c *clusterTick) Tick(cy int64) {
	c.Cache.Tick(cy)
	c.CMem.Tick(cy)
}

// NextWakeup implements sim.Sleeper: the earlier of the two parts' wakes.
func (c *clusterTick) NextWakeup(now int64) int64 {
	return min(c.Cache.NextWakeup(now), c.CMem.NextWakeup(now))
}

// MustNew builds a machine from a known-good configuration.
func MustNew(p params.Machine, opt Options) *Machine {
	m, err := New(p, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// AllocGlobal reserves words of global memory and returns the base word
// address.
func (m *Machine) AllocGlobal(words int) uint64 {
	base := m.nextGlobal
	m.nextGlobal += uint64(words)
	return base
}

// AllocGlobalAligned reserves words starting at a multiple of align words.
func (m *Machine) AllocGlobalAligned(words, align int) uint64 {
	if align > 0 && m.nextGlobal%uint64(align) != 0 {
		m.nextGlobal += uint64(align) - m.nextGlobal%uint64(align)
	}
	return m.AllocGlobal(words)
}

// AttachBlockStats wires a Table 2 style prefetch monitor to one CE, as
// the paper did ("we monitored all requests of a single processor").
func (m *Machine) AttachBlockStats(ceID int) *perfmon.BlockStats {
	bs := perfmon.NewBlockStats()
	m.CEs[ceID].PFU().SetObserver(bs.Observe)
	return bs
}

// Result summarizes a program run.
type Result struct {
	Cycles  int64
	Flops   int64
	MFLOPS  float64
	Seconds float64
}

// Run executes a controller on every CE until all are idle, returning
// aggregate timing. The limit bounds runaway programs.
func (m *Machine) Run(ctrl ce.Controller, limit int64) (Result, error) {
	return m.RunOn(m.CEs, ctrl, limit)
}

// RunOn executes a controller on a subset of CEs (the others stay idle).
func (m *Machine) RunOn(ces []*ce.CE, ctrl ce.Controller, limit int64) (Result, error) {
	start := m.Engine.Cycle()
	var flops0 int64
	for _, c := range m.CEs {
		flops0 += c.Flops()
	}
	for _, c := range ces {
		c.SetController(ctrl)
	}
	err := m.Engine.RunUntil(func() bool {
		for _, c := range ces {
			if !c.Idle() {
				return false
			}
		}
		return true
	}, limit)
	if err != nil {
		// Under a fault plan a starved program is a degraded run, not a
		// simulator failure: injected faults can legitimately keep a
		// barrier from ever filling.
		if m.Faults != nil {
			return Result{}, fmt.Errorf("core: %w: program did not complete: %v", fault.ErrDegraded, err)
		}
		return Result{}, fmt.Errorf("core: program did not complete: %w", err)
	}
	// Let the memory system drain (stores in flight etc.).
	if err := m.Engine.RunUntilIdle(100000); err != nil {
		return Result{}, fmt.Errorf("core: drain: %w", err)
	}
	var flops int64
	for _, c := range m.CEs {
		flops += c.Flops()
	}
	cycles := m.Engine.Cycle() - start
	r := Result{
		Cycles:  cycles,
		Flops:   flops - flops0,
		Seconds: params.CyclesToSeconds(cycles),
	}
	r.MFLOPS = params.MFLOPS(r.Flops, r.Cycles)
	// CEs that exhausted a retry budget abandoned their program; the
	// timing is still measured, so report it alongside the degradation.
	var failed []string
	for _, c := range ces {
		if cerr := c.Err(); cerr != nil {
			failed = append(failed, cerr.Error())
		}
	}
	if len(failed) > 0 {
		return r, fmt.Errorf("core: %w: %s", fault.ErrDegraded, strings.Join(failed, "; "))
	}
	return r, nil
}

// FaultCounters summarizes a faulted machine's injections and the
// recovery work they caused — the numbers the degraded-mode table and
// the observability hub report.
type FaultCounters struct {
	Injected int64 // faults fired (stalls + jams + drops + NACKs)
	Retries  int64 // PFU element reissues
	Timeouts int64 // PFU requests presumed lost
	Nacks    int64 // NACK replies received by PFUs
	DeadMods int   // memory modules removed from service
	FailedCE int   // CEs that abandoned their program
}

// FaultCounters reads the machine's fault and recovery counters; all
// zeros on a healthy machine.
func (m *Machine) FaultCounters() FaultCounters {
	var fc FaultCounters
	if m.Faults == nil {
		return fc
	}
	st := m.Faults.Stats()
	fc.Injected = st.BankStalls + st.StageJams + st.LinkDrops + st.PFUNacks
	fc.DeadMods = m.Faults.DeadModules()
	for _, c := range m.CEs {
		ps := c.PFU().Stats()
		fc.Retries += ps.Retries
		fc.Timeouts += ps.Timeouts
		fc.Nacks += ps.Nacks
		if c.Err() != nil {
			fc.FailedCE++
		}
	}
	return fc
}

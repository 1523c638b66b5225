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

	for cl := 0; cl < p.Clusters; cl++ {
		cm := cmem.New(p.CMemWordsPerCyc, p.CMemLatency, nil)
		cc := cache.New(p, p.CEsPerCluster, cm)
		cluster := &Cluster{
			ID:    cl,
			Bus:   ccbus.New(p, p.CEsPerCluster),
			Cache: cc,
			CMem:  cm,
		}
		// CEs are spread across the port space for the same reason the
		// memory modules are: destination tags must exercise every
		// switch output digit or reply traffic funnels through a few
		// first-stage outputs.
		ceStride := p.NetPorts / p.CEs()
		if ceStride < 1 {
			ceStride = 1
		}
		for i := 0; i < p.CEsPerCluster; i++ {
			id := cl*p.CEsPerCluster + i
			c := ce.New(p, id, cl, i, id*ceStride, fwd, rev, cc, m.Mem.ModuleFor)
			if m.Faults.Retryable() {
				// Only recoverable faults (NACKs, drops) arm the retry
				// machinery: timeout watchdogs under a stall-only plan
				// would add behavior the plan doesn't call for.
				c.ArmFaultRecovery()
			}
			cluster.CEs = append(cluster.CEs, c)
			m.CEs = append(m.CEs, c)
			c.SetWaker(m.register(c)[0].Wake)
			rev.SetPortSink(c.Port, c)
		}
		m.Clusters = append(m.Clusters, cluster)
		// Cache and cluster memory tick as one composite, after the
		// cluster's CEs (which submit to the cache) and with the cache
		// ahead of the memory behind it.
		ch := m.register(sim.SchedFunc{
			ID: fmt.Sprintf("cluster%d", cl),
			F:  func(cy int64) { cc.Tick(cy); cm.Tick(cy) },
			W: func(now int64) int64 {
				w := cc.NextWakeup(now)
				if t := cm.NextWakeup(now); t < w {
					w = t
				}
				return w
			},
		})[0]
		cc.SetWaker(ch.Wake)
		cm.SetWaker(ch.Wake)
	}
	hs := m.register(fwd, m.Mem, rev)
	fwd.SetWaker(hs[0].Wake)
	m.Mem.SetWaker(hs[1].Wake)
	rev.SetWaker(hs[2].Wake)
	m.instrument()
	return m, nil
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

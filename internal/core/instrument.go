package core

import (
	"fmt"

	"cedar/internal/network"
	"cedar/internal/scope"
)

// instrument publishes every component's counters, gauges, and cycle
// attribution on the machine's observability hub. All readings go through
// closures over component state, so a machine built without a hub pays
// nothing, and one built with a hub pays only at snapshot time.
func (m *Machine) instrument() {
	h := m.Scope
	if h == nil {
		return
	}

	eng := m.Engine
	h.Counter("engine.cycle", eng.Cycle)
	h.Gauge("engine.idle_components", func() int64 { return int64(eng.IdleCount()) })

	instrumentFabric(h, "net.fwd", m.Fwd)
	instrumentFabric(h, "net.rev", m.Rev)

	mem := m.Mem
	h.Counter("gmem.reads", func() int64 { return mem.Stats().Reads })
	h.Counter("gmem.writes", func() int64 { return mem.Stats().Writes })
	h.Counter("gmem.syncops", func() int64 { return mem.Stats().SyncOps })
	h.Counter("gmem.stalls", func() int64 { return mem.Stats().Stalls })
	h.Counter("gmem.busy_cycles", func() int64 { return mem.Stats().BusyCyc })
	h.Gauge("gmem.inflight", func() int64 { return int64(mem.InFlight()) })

	for _, cl := range m.Clusters {
		cc, bus := cl.Cache, cl.Bus
		pre := fmt.Sprintf("cluster%d", cl.ID)
		h.Counter(pre+".cache.hits", func() int64 { return cc.Stats().Hits })
		h.Counter(pre+".cache.misses", func() int64 { return cc.Stats().Misses })
		h.Counter(pre+".cache.miss_attach", func() int64 { return cc.Stats().MissAttach })
		h.Counter(pre+".cache.writebacks", func() int64 { return cc.Stats().WriteBacks })
		h.Counter(pre+".cache.stall_cycles", func() int64 { return cc.Stats().StallCyc })
		h.Gauge(pre+".cache.mshr_in_use", func() int64 { return int64(cc.MSHRInUse()) })
		h.Gauge(pre+".cache.queued", func() int64 { return int64(cc.QueuedRequests()) })
		h.Counter(pre+".bus.broadcasts", func() int64 { return bus.Stats().Broadcasts })
		h.Counter(pre+".bus.claims", func() int64 { return bus.Stats().Claims })
		h.Counter(pre+".bus.joins", func() int64 { return bus.Stats().Joins })
		h.Counter(pre+".bus.wait_cycles", func() int64 { return bus.Stats().WaitCyc })
	}

	ces := m.CEs
	h.Counter("ce.flops", func() int64 {
		var v int64
		for _, c := range ces {
			v += c.Flops()
		}
		return v
	})
	h.Counter("ce.active_cycles", func() int64 {
		var v int64
		for _, c := range ces {
			v += c.ActiveCycles()
		}
		return v
	})
	h.Counter("ce.wait_cycles", func() int64 {
		var v int64
		for _, c := range ces {
			v += c.WaitCycles()
		}
		return v
	})
	h.Gauge("ce.stores_outstanding", func() int64 {
		var v int64
		for _, c := range ces {
			v += int64(c.StoresOutstanding())
		}
		return v
	})
	h.Counter("pfu.blocks", func() int64 { return m.pfuStats().Blocks })
	h.Counter("pfu.issued", func() int64 { return m.pfuStats().Issued })
	h.Counter("pfu.returned", func() int64 { return m.pfuStats().Returned })
	h.Counter("pfu.dropped", func() int64 { return m.pfuStats().Dropped })
	h.Counter("pfu.suspends", func() int64 { return m.pfuStats().Suspends })
	h.Counter("pfu.refused_cycles", func() int64 { return m.pfuStats().RefusedCyc })
	h.Gauge("pfu.outstanding", func() int64 {
		var v int64
		for _, c := range ces {
			v += int64(c.PFU().Outstanding())
		}
		return v
	})

	// Fault-injection and recovery counters, only on faulted machines so
	// healthy metrics artifacts stay identical to the pre-fault layout.
	if inj := m.Faults; inj != nil {
		h.Counter("fault.bank_stalls", func() int64 { return inj.Stats().BankStalls })
		h.Counter("fault.stage_jams", func() int64 { return inj.Stats().StageJams })
		h.Counter("fault.link_drops", func() int64 { return inj.Stats().LinkDrops })
		h.Counter("fault.pfu_nacks", func() int64 { return inj.Stats().PFUNacks })
		h.Gauge("fault.dead_modules", func() int64 { return int64(inj.DeadModules()) })
		h.Counter("fault.pfu_retries", func() int64 { return m.FaultCounters().Retries })
		h.Counter("fault.pfu_timeouts", func() int64 { return m.FaultCounters().Timeouts })
		h.Counter("fault.failed_ces", func() int64 { return int64(m.FaultCounters().FailedCE) })
	}

	// Prefetch-block lifetime spans: first issue to last arrival, one
	// track per CE, matching the paper's single-processor block monitor
	// but machine-wide.
	for _, c := range ces {
		track := fmt.Sprintf("pfu/ce%d", c.ID)
		c.PFU().AddObserver(func(firstIssue int64, arrivals []int64) {
			end := firstIssue
			for _, a := range arrivals {
				if a > end {
					end = a
				}
			}
			h.Span(track, "prefetch-block", firstIssue, end)
		})
	}

	m.attribute()
}

// instrumentFabric publishes one fabric's counters and occupancy gauge.
func instrumentFabric(h *scope.Hub, pre string, f network.Fabric) {
	h.Counter(pre+".offered", func() int64 { return f.Stats().Offered })
	h.Counter(pre+".refused", func() int64 { return f.Stats().Refused })
	h.Counter(pre+".delivered", func() int64 { return f.Stats().Delivered })
	h.Counter(pre+".word_hops", func() int64 { return f.Stats().WordHops })
	h.Gauge(pre+".queued_words", func() int64 { return int64(f.Queued()) })
}

// pfuStats sums prefetch counters over every CE.
func (m *Machine) pfuStats() (s struct {
	Blocks, Issued, Returned, Dropped, Suspends, RefusedCyc int64
}) {
	for _, c := range m.CEs {
		ps := c.PFU().Stats()
		s.Blocks += ps.Blocks
		s.Issued += ps.Issued
		s.Returned += ps.Returned
		s.Dropped += ps.Dropped
		s.Suspends += ps.Suspends
		s.RefusedCyc += ps.RefusedCyc
	}
	return s
}

// attribute registers the machine's busy/stall/idle contributors. Each
// class reports in its own component-cycles: CE-cycles for "ce",
// module-cycles for "gmem", line-cycles for "network", and so on. Idle is
// derived (elapsed minus busy minus stall) and clamped at zero because
// busy and stall proxies can overlap within a cycle.
func (m *Machine) attribute() {
	h, eng := m.Scope, m.Engine

	ces := m.CEs
	h.Attribute("ce", func() scope.Attr {
		var busy, stall int64
		for _, c := range ces {
			busy += c.ActiveCycles()
			stall += c.WaitCycles()
		}
		return attr(busy, stall, int64(len(ces))*eng.Cycle())
	})

	mem := m.Mem
	h.Attribute("gmem", func() scope.Attr {
		s := mem.Stats()
		return attr(s.BusyCyc+s.DrainCyc, s.StallCyc, int64(mem.Modules())*eng.Cycle())
	})

	for _, cl := range m.Clusters {
		cc, bus := cl.Cache, cl.Bus
		h.Attribute("cache", func() scope.Attr {
			s := cc.Stats()
			return attr(s.BusyCyc, s.WaitCyc, eng.Cycle())
		})
		h.Attribute("ccbus", func() scope.Attr {
			s := bus.Stats()
			return attr(s.BusyCyc, s.WaitCyc, eng.Cycle())
		})
	}

	for _, f := range []network.Fabric{m.Fwd, m.Rev} {
		f := f
		h.Attribute("network", func() scope.Attr {
			s := f.Stats()
			return attr(s.WordHops, s.RefusedCyc, int64(f.Lines())*eng.Cycle())
		})
	}
}

// attr assembles an Attr whose parts sum to elapsed exactly. The
// contributors feeding it count disjoint per-cycle classifications, so
// the clamps are no-ops except for a transaction booked past the end of
// a run (ccbus); they keep the conservation law an invariant rather
// than a convention.
func attr(busy, stall, elapsed int64) scope.Attr {
	if busy > elapsed {
		busy = elapsed
	}
	if stall > elapsed-busy {
		stall = elapsed - busy
	}
	return scope.Attr{Busy: busy, Stall: stall, Idle: elapsed - busy - stall, Elapsed: elapsed}
}

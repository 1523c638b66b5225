package core

import (
	"strconv"
	"strings"

	"cedar/internal/network"
	"cedar/internal/scope"
)

const counter, gauge = scope.KindCounter, scope.KindGauge

// The fixed metric tables: names and kinds, index for index with what
// each table's read fills in instrument.
var (
	engineNames = []string{"engine.cycle", "engine.idle_components"}
	engineKinds = []scope.Kind{counter, gauge}

	fabricNames = [2][]string{ // net.fwd, net.rev
		{"net.fwd.offered", "net.fwd.refused", "net.fwd.delivered", "net.fwd.word_hops", "net.fwd.queued_words"},
		{"net.rev.offered", "net.rev.refused", "net.rev.delivered", "net.rev.word_hops", "net.rev.queued_words"}}
	fabricKinds = []scope.Kind{counter, counter, counter, counter, gauge}

	gmemNames = []string{"gmem.reads", "gmem.writes", "gmem.syncops", "gmem.stalls", "gmem.busy_cycles", "gmem.inflight"}
	gmemKinds = []scope.Kind{counter, counter, counter, counter, counter, gauge}

	// A cluster's metrics are "cluster<ID>" and one of these suffixes.
	clusterSuffixes = []string{".cache.hits", ".cache.misses", ".cache.miss_attach", ".cache.writebacks",
		".cache.stall_cycles", ".cache.mshr_in_use", ".cache.queued",
		".bus.broadcasts", ".bus.claims", ".bus.joins", ".bus.wait_cycles"}
	clusterKinds = []scope.Kind{counter, counter, counter, counter, counter, gauge, gauge,
		counter, counter, counter, counter}

	ceNames = []string{"ce.flops", "ce.active_cycles", "ce.wait_cycles", "ce.stores_outstanding",
		"pfu.blocks", "pfu.issued", "pfu.returned", "pfu.dropped", "pfu.suspends", "pfu.refused_cycles", "pfu.outstanding"}
	ceKinds = []scope.Kind{counter, counter, counter, gauge, counter, counter, counter, counter, counter, counter, gauge}

	faultNames = []string{"fault.bank_stalls", "fault.stage_jams", "fault.link_drops", "fault.pfu_nacks",
		"fault.dead_modules", "fault.pfu_retries", "fault.pfu_timeouts", "fault.failed_ces"}
	faultKinds = []scope.Kind{counter, counter, counter, counter, gauge, counter, counter, counter}
)

// instrument publishes every component's counters, gauges, and cycle
// attribution on the machine's observability hub: one metric table per
// source, read from component state only when a snapshot is taken.
// Nothing here costs an object per CE or per cluster: all clusters are
// one table whose names are substrings of one string, the per-cluster
// attribution is one contributor per class, and the prefetch-block spans
// go through one tracer shared by every PFU.
func (m *Machine) instrument() {
	h := m.Scope
	if h == nil {
		return
	}

	eng := m.Engine
	h.Table(engineNames, engineKinds, func(dst []int64) {
		dst[0], dst[1] = eng.Cycle(), int64(eng.IdleCount())
	})

	for i, f := range [...]network.Fabric{m.Fwd, m.Rev} {
		h.Table(fabricNames[i], fabricKinds, func(dst []int64) {
			s := f.Stats()
			dst[0], dst[1], dst[2], dst[3] = s.Offered, s.Refused, s.Delivered, s.WordHops
			dst[4] = int64(f.Queued())
		})
	}

	mem := m.Mem
	h.Table(gmemNames, gmemKinds, func(dst []int64) {
		s := mem.Stats()
		dst[0], dst[1], dst[2], dst[3], dst[4] = s.Reads, s.Writes, s.SyncOps, s.Stalls, s.BusyCyc
		dst[5] = int64(mem.InFlight())
	})

	clusters := m.Clusters
	width := len(clusterSuffixes)
	clusterNames := names(len(clusters)*width, func(b []byte, i int) []byte {
		b = strconv.AppendInt(append(b, "cluster"...), int64(clusters[i/width].ID), 10)
		return append(b, clusterSuffixes[i%width]...)
	})
	kinds := make([]scope.Kind, len(clusterNames))
	for i := range kinds {
		kinds[i] = clusterKinds[i%width]
	}
	h.Table(clusterNames, kinds, func(dst []int64) {
		for i, cl := range clusters {
			d, cs, bs := dst[i*width:], cl.Cache.Stats(), cl.Bus.Stats()
			d[0], d[1], d[2], d[3], d[4] = cs.Hits, cs.Misses, cs.MissAttach, cs.WriteBacks, cs.StallCyc
			d[5], d[6] = int64(cl.Cache.MSHRInUse()), int64(cl.Cache.QueuedRequests())
			d[7], d[8], d[9], d[10] = bs.Broadcasts, bs.Claims, bs.Joins, bs.WaitCyc
		}
	})

	ces := m.CEs
	h.Table(ceNames, ceKinds, func(dst []int64) {
		clear(dst)
		for _, c := range ces {
			pfu := c.PFU()
			ps := pfu.Stats()
			for i, v := range [...]int64{c.Flops(), c.ActiveCycles(), c.WaitCycles(), int64(c.StoresOutstanding()),
				ps.Blocks, ps.Issued, ps.Returned, ps.Dropped, ps.Suspends, ps.RefusedCyc, int64(pfu.Outstanding())} {
				dst[i] += v
			}
		}
	})

	// Fault-injection and recovery counters, only on faulted machines so
	// healthy metrics artifacts stay identical to the pre-fault layout.
	if inj := m.Faults; inj != nil {
		h.Table(faultNames, faultKinds, func(dst []int64) {
			s, fc := inj.Stats(), m.FaultCounters()
			dst[0], dst[1], dst[2], dst[3] = s.BankStalls, s.StageJams, s.LinkDrops, s.PFUNacks
			dst[4] = int64(inj.DeadModules())
			dst[5], dst[6], dst[7] = fc.Retries, fc.Timeouts, int64(fc.FailedCE)
		})
	}

	// Prefetch-block lifetime spans: first issue to last arrival, one
	// track per CE, matching the paper's single-processor block monitor
	// but machine-wide.
	spans := &blockSpans{h: h, tracks: names(len(ces), func(b []byte, i int) []byte {
		return strconv.AppendInt(append(b, "pfu/ce"...), int64(i), 10)
	})}
	for i, c := range ces {
		c.PFU().SetTracer(spans, i)
	}

	m.attribute()
}

// blockSpans posts every PFU's prefetch blocks as trace spans, PFU i's
// on track tracks[i] ("pfu/ce<i>").
type blockSpans struct {
	h      *scope.Hub
	tracks []string
}

// Block implements prefetch.BlockTracer.
func (s *blockSpans) Block(id int, firstIssue, lastArrival int64) {
	s.h.Span(s.tracks[id], "prefetch-block", firstIssue, max(firstIssue, lastArrival))
}

// names returns n strings, name i being what format appends for i, as
// substrings of one string sized exactly: n names cost a few objects, not
// n. Each substring is taken from the builder as it grows; a builder
// never rewrites what it holds, so every one stays valid.
func names(n int, format func(b []byte, i int) []byte) []string {
	var scratch []byte
	total := 0
	for i := 0; i < n; i++ {
		scratch = format(scratch[:0], i)
		total += len(scratch)
	}
	var all strings.Builder
	all.Grow(total)
	out := make([]string, n)
	for i := range out {
		scratch = format(scratch[:0], i)
		start := all.Len()
		all.Write(scratch)
		out[i] = all.String()[start:]
	}
	return out
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

	// One contributor per class sums what one per cluster would: the hub
	// adds contributors of a class, and each cluster is clamped alone.
	clusters := m.Clusters
	h.Attribute("cache", func() (a scope.Attr) {
		for _, cl := range clusters {
			s := cl.Cache.Stats()
			a = sum(a, attr(s.BusyCyc, s.WaitCyc, eng.Cycle()))
		}
		return a
	})
	h.Attribute("ccbus", func() (a scope.Attr) {
		for _, cl := range clusters {
			s := cl.Bus.Stats()
			a = sum(a, attr(s.BusyCyc, s.WaitCyc, eng.Cycle()))
		}
		return a
	})

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

// sum adds two contributors' attributions.
func sum(a, b scope.Attr) scope.Attr {
	return scope.Attr{Busy: a.Busy + b.Busy, Stall: a.Stall + b.Stall, Idle: a.Idle + b.Idle, Elapsed: a.Elapsed + b.Elapsed}
}

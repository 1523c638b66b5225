package network

import "cedar/internal/fault"

// scanOmega is the omega as it arbitrated before the occupancy bits: every
// switch of every stage visited each cycle (empty ones skipped by a packet
// count only), every input's head read, the round-robin winner found by a
// k-step scan from the pointer, and the route digit computed as
// dst / div % k per head per hop. It is kept, like the formulas in
// TestRoutingTablesMatchFormulas, as the definition the production arbiter
// must reproduce cycle for cycle; the differential tests drive both.
type scanOmega struct {
	name     string
	radix    int
	stages   int
	ports    int
	shufTab  []int
	routeDiv []int

	in          [][]wordQueue
	egress      []wordQueue
	rr          [][]int
	outBusy     [][]int
	busyWires   [][]int
	swCount     [][]int
	ingressBusy []int
	ingressList []int

	stats      Stats
	inflight   int
	heads      int64 // headPkt calls in the gather pass
	inj        *fault.Injector
	lastRefuse []int64
	now        int64
}

func newScanOmega(cfg OmegaConfig) *scanOmega {
	stages := 0
	for n := cfg.Ports; n > 1; n /= cfg.Radix {
		stages++
	}
	egressCap := cfg.EgressWords
	if egressCap == 0 {
		egressCap = 2 * cfg.QueueWords
	}
	o := &scanOmega{
		name:        cfg.Name,
		radix:       cfg.Radix,
		stages:      stages,
		ports:       cfg.Ports,
		shufTab:     make([]int, cfg.Ports),
		routeDiv:    make([]int, stages),
		in:          make([][]wordQueue, stages),
		egress:      newWordQueues(cfg.Ports, egressCap),
		rr:          make([][]int, stages),
		outBusy:     make([][]int, stages),
		busyWires:   make([][]int, stages),
		swCount:     make([][]int, stages),
		ingressBusy: make([]int, cfg.Ports),
		lastRefuse:  make([]int64, cfg.Ports),
	}
	for p := range o.lastRefuse {
		o.lastRefuse[p] = -1
	}
	for l := range o.shufTab {
		v := l * cfg.Radix
		o.shufTab[l] = v%cfg.Ports + v/cfg.Ports
	}
	for t, div := stages-1, 1; t >= 0; t, div = t-1, div*cfg.Radix {
		o.routeDiv[t] = div
	}
	for t := 0; t < stages; t++ {
		o.in[t] = newWordQueues(cfg.Ports, 2*cfg.QueueWords)
		o.rr[t] = make([]int, cfg.Ports)
		o.outBusy[t] = make([]int, cfg.Ports)
		o.swCount[t] = make([]int, cfg.Ports/cfg.Radix)
	}
	return o
}

func (o *scanOmega) Stats() Stats { return o.stats }

func (o *scanOmega) Offer(p *Packet) bool {
	if o.ingressBusy[p.Src] > 0 {
		o.refuse(p.Src)
		return false
	}
	line := o.shufTab[p.Src]
	q := &o.in[0][line]
	if !q.canAccept(p.Words()) {
		o.refuse(p.Src)
		return false
	}
	p.readyAt = o.now
	q.push(p)
	o.ingressBusy[p.Src] = p.Words()
	o.swCount[0][line/o.radix]++
	o.ingressList = append(o.ingressList, p.Src)
	o.stats.Offered++
	o.inflight++
	return true
}

func (o *scanOmega) refuse(port int) {
	o.stats.Refused++
	if o.lastRefuse[port] != o.now {
		o.lastRefuse[port] = o.now
		o.stats.RefusedCyc++
	}
}

func (o *scanOmega) Poll(port int) *Packet {
	h := o.egress[port].headPkt()
	if h == nil || h.readyAt >= o.now {
		return nil
	}
	o.egress[port].pop()
	o.stats.Delivered++
	o.inflight--
	return h
}

func (o *scanOmega) Tick(cycle int64) {
	o.now = cycle + 1
	if len(o.ingressList) > 0 {
		keep := o.ingressList[:0]
		for _, p := range o.ingressList {
			if o.ingressBusy[p] > 0 {
				o.ingressBusy[p]--
			}
			if o.ingressBusy[p] > 0 {
				keep = append(keep, p)
			}
		}
		o.ingressList = keep
	}
	for t := o.stages - 1; t >= 0; t-- {
		o.tickStage(t, cycle)
	}
}

func (o *scanOmega) tickStage(t int, cycle int64) {
	nsw := o.ports / o.radix
	k := o.radix
	div := o.routeDiv[t]
	in, rr, outBusy, swCount := o.in[t], o.rr[t], o.outBusy[t], o.swCount[t]
	last := t == o.stages-1
	if len(o.busyWires[t]) > 0 {
		keep := o.busyWires[t][:0]
		for _, w := range o.busyWires[t] {
			outBusy[w]--
			if outBusy[w] > 0 {
				keep = append(keep, w)
			}
		}
		o.busyWires[t] = keep
	}
	var wantOut [maxRadix]int8 // desired output per input, -1 = none
	for sw := 0; sw < nsw; sw++ {
		if swCount[sw] == 0 {
			continue
		}
		base := sw * k
		outMask := 0
		for inp := 0; inp < k; inp++ {
			wantOut[inp] = -1
			h := in[base+inp].headPkt()
			o.heads++
			if h == nil || h.readyAt > cycle {
				continue
			}
			out := h.Dst / div % k
			wantOut[inp] = int8(out)
			outMask |= 1 << out
		}
		if outMask == 0 {
			continue
		}
		for out := 0; out < k; out++ {
			if outMask&(1<<out) == 0 {
				continue
			}
			gout := base + out
			if outBusy[gout] > 0 {
				continue
			}
			if o.inj != nil && o.inj.StageJam(o.name, t, gout, cycle) {
				continue
			}
			// Round-robin scan starting after the last winner.
			inp := rr[gout]
			for i := 0; i < k; i++ {
				if inp++; inp >= k {
					inp -= k
				}
				if wantOut[inp] != int8(out) {
					continue
				}
				src := &in[base+inp]
				if o.inj != nil && droppable(src.headPkt()) &&
					o.inj.LinkDrop(o.name, t, gout, cycle) {
					src.pop()
					swCount[sw]--
					o.inflight--
					break
				}
				dst := &o.egress[gout]
				if !last {
					dst = &o.in[t+1][o.shufTab[gout]]
				}
				if !dst.canAccept(src.headPkt().Words()) {
					break // head-of-line blocking: this output stalls
				}
				h := src.pop()
				swCount[sw]--
				h.readyAt = cycle + int64(h.Words())
				dst.push(h)
				if !last {
					o.swCount[t+1][o.shufTab[gout]/k]++
				}
				rr[gout] = inp
				if w := h.Words() - 1; w > 0 {
					outBusy[gout] = w
					o.busyWires[t] = append(o.busyWires[t], gout)
				}
				o.stats.WordHops += int64(h.Words())
				break
			}
		}
	}
}

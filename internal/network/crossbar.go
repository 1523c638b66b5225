package network

import (
	"fmt"

	"cedar/internal/fault"
	"cedar/internal/sim"
)

// Crossbar is an idealized single-stage interconnect used for the [Turn93]
// ablation: the paper attributes Cedar's contention degradation to
// "specific implementation constraints" (shallow two-word queues in a
// multistage fabric) rather than to the network type itself. The Crossbar
// has no internal blocking and unbounded ingress buffering; the only
// conflicts are at the egress ports, each of which delivers one word per
// cycle. Comparing kernels under Omega vs Crossbar isolates the network
// topology from the raw port bandwidth.
type Crossbar struct {
	name    string
	ports   int
	latency int64 // minimum transit cycles, matching the omega's stage count

	pending  pktHeap // packets in transit, ordered by arrival time
	egress   []unboundedQueue
	outFree  []int64 // next cycle each egress port may deliver a word
	stats    Stats
	inflight int
	seq      int64
	inj      *fault.Injector
	wake     sim.Handle
	sinks    []PortSink
}

// NewCrossbar builds an ideal crossbar with the given minimum transit
// latency (use the stage count of the omega being compared against).
// Panics if ports < 1 — a configuration bug, not a runtime condition.
func NewCrossbar(name string, ports int, latency int) *Crossbar {
	if ports < 1 {
		panic("network: crossbar needs ≥1 port")
	}
	if latency < 1 {
		latency = 1
	}
	return &Crossbar{
		name:    name,
		ports:   ports,
		latency: int64(latency),
		egress:  make([]unboundedQueue, ports),
		outFree: make([]int64, ports),
		sinks:   make([]PortSink, ports),
	}
}

// Name implements Fabric.
func (c *Crossbar) Name() string { return c.name }

// Ports implements Fabric.
func (c *Crossbar) Ports() int { return c.ports }

// Stats implements Fabric.
func (c *Crossbar) Stats() Stats { return c.stats }

// Idle implements Fabric.
func (c *Crossbar) Idle() bool { return c.inflight == 0 }

// SetFaults implements Fabric. The single-stage crossbar maps a stage
// fault onto its one logical stage: jams add transit latency (there is
// no queue to block) and drops lose the packet at transit start.
func (c *Crossbar) SetFaults(inj *fault.Injector) { c.inj = inj }

// SetWaker implements Fabric.
func (c *Crossbar) SetWaker(wake sim.Handle) { c.wake = wake }

// SetPortSink implements Fabric.
func (c *Crossbar) SetPortSink(port int, s PortSink) { c.sinks[port] = s }

// NextWakeup implements Fabric (sim.Sleeper). Egress packets are fully
// delivered (Peek is not clock-gated), so only the transit heap needs
// ticks: the fabric sleeps until its earliest arrival. Unstamped heads
// (readyAt -1, sorted first) need a tick now to be scheduled. Until a
// waker is wired the fabric never sleeps: Offer could not rouse it.
func (c *Crossbar) NextWakeup(now int64) int64 {
	if c.wake.IsZero() {
		return now
	}
	if len(c.pending) == 0 {
		return sim.Never
	}
	r := c.pending[0].pkt.readyAt
	if r > now {
		return r
	}
	return now
}

// NextAt implements Fabric: crossbar egress packets are consumable as
// soon as they are queued.
func (c *Crossbar) NextAt(port int, now int64) int64 {
	if c.egress[port].headPkt() == nil {
		return sim.Never
	}
	return now
}

// Queued implements Fabric: words of every packet not yet polled — the
// ideal crossbar buffers everything internally.
func (c *Crossbar) Queued() int {
	w := 0
	for i := range c.pending {
		w += c.pending[i].pkt.Words()
	}
	for p := range c.egress {
		q := &c.egress[p]
		for i := q.head; i < len(q.pkts); i++ {
			w += q.pkts[i].Words()
		}
	}
	return w
}

// Lines implements Fabric: a single-stage fabric has one wire per port.
func (c *Crossbar) Lines() int { return c.ports }

// Offer implements Fabric. An ideal crossbar never refuses. Panics if a
// port is out of range — a wiring bug, not a runtime condition.
func (c *Crossbar) Offer(p *Packet) bool {
	if p.Src < 0 || p.Src >= c.ports || p.Dst < 0 || p.Dst >= c.ports {
		panic(fmt.Sprintf("network %s: port out of range: %v", c.name, p))
	}
	p.readyAt = -1 // filled in when scheduled below
	c.seq++
	c.pending.push(pendingPkt{pkt: p, seq: c.seq})
	c.stats.Offered++
	c.inflight++
	c.wake.Wake(0) // clamps to the currently executing cycle
	return true
}

// Tick implements Fabric: packets whose transit time has elapsed contend
// for their egress port in arrival order; each port passes one word per
// cycle. A packet reaches the egress queue only once its last word has
// crossed, so Peek/Poll always see fully delivered packets.
func (c *Crossbar) Tick(cycle int64) {
	for len(c.pending) > 0 {
		top := &c.pending[0]
		if top.pkt.readyAt == -1 {
			if droppable(top.pkt) && c.inj.LinkDrop(c.name, 0, top.pkt.Dst, cycle) {
				c.pending.pop()
				c.inflight--
				continue
			}
			// Stamp transit eligibility on first sight; a jammed stage
			// shows up as added transit latency.
			top.pkt.readyAt = cycle + c.latency + c.inj.JamDelay(c.name, 0, top.pkt.Dst, cycle)
			c.pending.fix(0)
			continue
		}
		if top.pkt.readyAt > cycle {
			break
		}
		if !top.scheduled {
			// Transit done: serialize through the egress port.
			port := top.pkt.Dst
			free := c.outFree[port]
			if free < cycle {
				free = cycle
			}
			w := int64(top.pkt.Words())
			c.outFree[port] = free + w
			top.pkt.readyAt = free + w
			top.scheduled = true
			c.stats.WordHops += w
			c.pending.fix(0)
			continue
		}
		p := c.pending.pop().pkt
		c.egress[p.Dst].push(p)
		if s := c.sinks[p.Dst]; s != nil {
			// Consumable this very cycle by an after-fabric sink.
			s.PortReady(p.Dst, cycle)
		}
	}
}

// Peek implements Fabric.
func (c *Crossbar) Peek(port int) *Packet {
	return c.egress[port].headPkt()
}

// Poll implements Fabric.
func (c *Crossbar) Poll(port int) *Packet {
	p := c.egress[port].pop()
	if p != nil {
		c.stats.Delivered++
		c.inflight--
	}
	return p
}

var _ Fabric = (*Crossbar)(nil)

// unboundedQueue is the ideal crossbar's infinite egress buffer.
type unboundedQueue struct {
	pkts []*Packet
	head int
}

func (q *unboundedQueue) push(p *Packet) { q.pkts = append(q.pkts, p) }

func (q *unboundedQueue) headPkt() *Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	return q.pkts[q.head]
}

func (q *unboundedQueue) pop() *Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return p
}

type pendingPkt struct {
	pkt       *Packet
	seq       int64
	scheduled bool
}

// pktHeap is a hand-rolled min-heap over pendingPkt, ordered by readyAt
// then arrival sequence. container/heap would box every element through
// interface{} on Push/Pop — an allocation per packet on the per-cycle
// path — so the sift routines are written out instead.
type pktHeap []pendingPkt

func (h pktHeap) less(i, j int) bool {
	ri, rj := h[i].pkt.readyAt, h[j].pkt.readyAt
	if ri != rj {
		// Unstamped packets (-1) sort first so Tick stamps them.
		return ri < rj
	}
	return h[i].seq < h[j].seq
}

func (h *pktHeap) push(p pendingPkt) {
	*h = append(*h, p)
	h.up(len(*h) - 1)
}

func (h *pktHeap) pop() pendingPkt {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	top := old[n]
	old[n] = pendingPkt{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// fix restores heap order after element i's key changed in place.
func (h *pktHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *pktHeap) up(i int) {
	s := *h
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// down sifts element i toward the leaves; it reports whether i moved.
func (h *pktHeap) down(i int) bool {
	s := *h
	start := i
	for {
		left := 2*i + 1
		if left >= len(s) {
			break
		}
		least := left
		if right := left + 1; right < len(s) && s.less(right, left) {
			least = right
		}
		if !s.less(least, i) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return i > start
}

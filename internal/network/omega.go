package network

import (
	"fmt"
	"math"

	"cedar/internal/fault"
)

// Fabric is a unidirectional interconnection network between n ingress
// ports and n egress ports. Cedar instantiates two fabrics: forward
// (CE→memory) and reverse (memory→CE).
//
// A Fabric is a sim.Component; sources must be ticked before the fabric
// and sinks after it so a packet traverses at most one stage per cycle.
// It is also a sim.Sleeper: NextWakeup keeps the fabric ticking exactly
// while packets are inside it, SetWaker lets Offer rouse a sleeping
// fabric, and SetPortWaker/NextAt carry delivery times to sleeping
// egress consumers (the waker and NextAt both report the first cycle an
// after-fabric sink can consume the packet; sinks registered before the
// fabric see it one cycle later and add that themselves).
type Fabric interface {
	// Name identifies the fabric in diagnostics.
	Name() string
	// Ports returns the port count.
	Ports() int
	// Offer attempts to inject a packet at its Src port. It returns false
	// when the ingress queue cannot accept the packet this cycle; the
	// caller must retry later (flow control back-pressure).
	Offer(p *Packet) bool
	// Poll removes and returns the next packet delivered at the egress
	// port, or nil if none is ready.
	Poll(port int) *Packet
	// Peek returns the next deliverable packet without removing it.
	Peek(port int) *Packet
	// Tick advances the fabric one cycle.
	Tick(cycle int64)
	// Idle reports whether no packets are in flight.
	Idle() bool
	// Stats returns cumulative traffic counters.
	Stats() Stats
	// Queued returns the words currently buffered inside the fabric —
	// an instantaneous occupancy gauge for the observability hub.
	Queued() int
	// Lines returns the number of wire-cycles available per simulated
	// cycle (ports × (stages+1) for a multistage fabric, counting the
	// ingress wires), the denominator for utilization attribution.
	Lines() int
	// SetFaults installs a fault injector consulted on every wire
	// movement. nil (the default) is the healthy fabric.
	SetFaults(inj *fault.Injector)
	// NextWakeup implements sim.Sleeper: now while any packet is in
	// flight, Never when the fabric is empty.
	NextWakeup(now int64) int64
	// SetWaker installs the fabric's own wake callback (its engine
	// handle); Offer invokes it so an injection rouses a sleeping fabric.
	SetWaker(wake func(at int64))
	// SetPortWaker installs a per-egress-port callback invoked when a
	// packet finishes arriving at that port, with the first cycle an
	// after-fabric sink could consume it.
	SetPortWaker(port int, wake func(at int64))
	// NextAt returns the first cycle ≥ now at which an after-fabric sink
	// could consume the packet at the egress port's head, or Never when
	// the queue is empty. Sleeping consumers fold it into NextWakeup so a
	// requery never forgets work already waiting at the port.
	NextAt(port int, now int64) int64
}

// Stats holds cumulative fabric counters.
type Stats struct {
	Offered   int64 // packets accepted at ingress
	Refused   int64 // Offer calls rejected by back-pressure
	Delivered int64 // packets handed to egress consumers
	WordHops  int64 // word×stage movements (a utilization proxy)
	// RefusedCyc counts port-cycles with at least one rejected Offer —
	// the deduplicated, conservation-safe stall measure (Refused can
	// exceed one per port per cycle when a CE and its PFU both retry).
	RefusedCyc int64
}

// never mirrors sim.Never without importing the engine package (the
// layering DAG keeps network below sim): the NextWakeup value meaning
// "asleep until woken".
const never = int64(math.MaxInt64)

// Omega is Cedar's packet-switched multistage shuffle-exchange network.
//
// The fabric has ports = radix^stages lines. Each stage applies the perfect
// radix-k shuffle (rotate the base-k digits of the line number left by one)
// and then a column of k×k crossbar switches. A packet destined for egress
// port d is self-routed: the switch at stage t sends it out local port
// digit(d, stages-1-t) — the tag-control scheme of [Lawr75].
//
// Each stage line has a word-granular queue (the hardware has a two-word
// queue at every crossbar input and output port; we aggregate the pair into
// one queue of their combined capacity). Flow control between stages
// prevents overflow: a packet advances only if the downstream queue has
// space. A W-word packet occupies its output wire for W cycles.
type Omega struct {
	name   string
	radix  int
	stages int
	ports  int
	// shufTab[l] is the line the perfect radix-k shuffle wires line l to
	// (the base-k digits of l rotated left by one), and routeDiv[t] the
	// power of the radix whose quotient exposes the destination digit that
	// self-routes a packet at stage t. Both are fixed by the geometry and
	// read per head packet per hop, so NewOmega computes them once.
	shufTab  []int
	routeDiv []int

	// in[t][l] is the queue at the input of stage t, line l.
	in [][]wordQueue
	// egress[p] is the delivery queue at egress port p.
	egress []wordQueue
	// rr[t][l] is the round-robin arbitration pointer for the output wire
	// at stage t, global output line l (which input of the switch last won).
	rr [][]int
	// outBusy[t][l] counts remaining cycles the output wire at stage t,
	// line l is occupied by a multi-word packet.
	outBusy [][]int
	// busyWires[t] lists wires with outBusy > 0, so idle switches can be
	// skipped without freezing in-flight multi-word transfers.
	busyWires [][]int
	// swCount[t][sw] counts packets queued at the inputs of switch sw in
	// stage t; empty switches are skipped in the hot loop.
	swCount [][]int
	// ingressBusy[p] counts remaining cycles port p's ingress wire is
	// occupied; ingressList tracks the busy ones.
	ingressBusy []int
	ingressList []int

	egressCap int
	stats     Stats
	inflight  int
	inj       *fault.Injector
	// wake is the fabric's own engine handle (Offer rouses a sleeping
	// fabric through it); portWake[p] notifies egress port p's consumer
	// when a packet finishes arriving. Both are optional.
	wake     func(at int64)
	portWake []func(at int64)
	// lastRefuse[p] is the o.now stamp of port p's last counted refusal,
	// deduplicating RefusedCyc to one per port-cycle.
	lastRefuse []int64
	// now is the next cycle this fabric will execute. Offer stamps packets
	// with it so a packet injected during cycle c takes its first hop at
	// tick c; Poll uses it so a packet that completed its last hop during
	// cycle c is consumable from cycle c+1 on (sinks tick after the fabric,
	// so a sink at cycle c+1 sees it one cycle after arrival).
	now int64
}

// OmegaConfig configures an Omega fabric.
type OmegaConfig struct {
	Name string
	// Ports must be a power of Radix.
	Ports int
	// Radix is the crossbar arity (Cedar: 8).
	Radix int
	// QueueWords is the buffering per crossbar port (Cedar: 2). Each stage
	// line aggregates an input and an output port queue, so the per-line
	// capacity is 2×QueueWords.
	QueueWords int
	// EgressWords is the delivery queue capacity at each egress port.
	// Zero selects 2×QueueWords.
	EgressWords int
}

// NewOmega builds the fabric. It panics if Ports is not a positive power
// of Radix — configurations are validated by params.Machine.Validate, so
// this indicates a programming error.
func NewOmega(cfg OmegaConfig) *Omega {
	if cfg.Radix < 2 || cfg.Radix > maxRadix {
		panic(fmt.Sprintf("network: radix %d outside 2..%d", cfg.Radix, maxRadix))
	}
	stages := 0
	for n := cfg.Ports; n > 1; n /= cfg.Radix {
		if n%cfg.Radix != 0 {
			panic(fmt.Sprintf("network: ports %d not a power of radix %d", cfg.Ports, cfg.Radix))
		}
		stages++
	}
	if stages == 0 {
		panic("network: need at least one stage")
	}
	if cfg.QueueWords < 1 {
		panic("network: QueueWords < 1")
	}
	egressCap := cfg.EgressWords
	if egressCap == 0 {
		egressCap = 2 * cfg.QueueWords
	}
	o := &Omega{
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
		egressCap:   egressCap,
		portWake:    make([]func(at int64), cfg.Ports),
		lastRefuse:  make([]int64, cfg.Ports),
	}
	for p := range o.lastRefuse {
		o.lastRefuse[p] = -1
	}
	for l := range o.shufTab {
		v := l * cfg.Radix
		o.shufTab[l] = v%cfg.Ports + v/cfg.Ports
	}
	// Stage t routes on digit stages-1-t of the destination (tag control).
	for t, div := stages-1, 1; t >= 0; t, div = t-1, div*cfg.Radix {
		o.routeDiv[t] = div
	}
	lineCap := 2 * cfg.QueueWords
	for t := 0; t < stages; t++ {
		o.in[t] = newWordQueues(cfg.Ports, lineCap)
		o.rr[t] = make([]int, cfg.Ports)
		o.outBusy[t] = make([]int, cfg.Ports)
		o.swCount[t] = make([]int, cfg.Ports/cfg.Radix)
	}
	return o
}

// Name implements Fabric.
func (o *Omega) Name() string { return o.name }

// Ports implements Fabric.
func (o *Omega) Ports() int { return o.ports }

// Stats implements Fabric.
func (o *Omega) Stats() Stats { return o.stats }

// Idle implements Fabric.
func (o *Omega) Idle() bool { return o.inflight == 0 }

// SetFaults implements Fabric.
func (o *Omega) SetFaults(inj *fault.Injector) { o.inj = inj }

// SetWaker implements Fabric.
func (o *Omega) SetWaker(wake func(at int64)) { o.wake = wake }

// SetPortWaker implements Fabric.
func (o *Omega) SetPortWaker(port int, wake func(at int64)) { o.portWake[port] = wake }

// NextWakeup implements Fabric (sim.Sleeper): the omega must tick every
// cycle a packet is anywhere inside it — stage queues, egress queues
// (Peek gates on the advancing clock) or the ingress wires — and can
// sleep indefinitely once empty; Offer wakes it back up. Until a waker
// is wired the fabric never sleeps: Offer could not rouse it.
func (o *Omega) NextWakeup(now int64) int64 {
	if o.wake == nil || o.inflight > 0 || len(o.ingressList) > 0 {
		return now
	}
	return never
}

// NextAt implements Fabric.
func (o *Omega) NextAt(port int, now int64) int64 {
	h := o.egress[port].headPkt()
	if h == nil {
		return never
	}
	if h.readyAt > now {
		return h.readyAt
	}
	return now
}

// Queued implements Fabric: words buffered in the stage and egress queues.
func (o *Omega) Queued() int {
	w := 0
	for t := 0; t < o.stages; t++ {
		for l := 0; l < o.ports; l++ {
			w += o.in[t][l].words
		}
	}
	for p := 0; p < o.ports; p++ {
		w += o.egress[p].words
	}
	return w
}

// Lines implements Fabric: one output wire per line per stage, plus the
// ingress wire per port (whose refused cycles are the stall side of the
// network attribution).
func (o *Omega) Lines() int { return o.ports * (o.stages + 1) }

// Offer implements Fabric. The packet enters the stage-0 queue on the
// shuffled line for its source port. Panics if a port is out of range —
// a wiring bug, not a runtime condition.
func (o *Omega) Offer(p *Packet) bool {
	if p.Src < 0 || p.Src >= o.ports || p.Dst < 0 || p.Dst >= o.ports {
		panic(fmt.Sprintf("network %s: port out of range: %v", o.name, p))
	}
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
	if o.wake != nil {
		// Rouse a sleeping fabric: 0 clamps to the earliest legal cycle,
		// which is the one currently executing (sources tick first).
		o.wake(0)
	}
	return true
}

// refuse records one rejected Offer, deduplicating the per-port-cycle
// RefusedCyc stall counter via o.now (current while the fabric is
// non-empty, which a refusal implies).
func (o *Omega) refuse(port int) {
	o.stats.Refused++
	if o.lastRefuse[port] != o.now {
		o.lastRefuse[port] = o.now
		o.stats.RefusedCyc++
	}
}

// Peek implements Fabric.
func (o *Omega) Peek(port int) *Packet {
	h := o.egress[port].headPkt()
	if h == nil || h.readyAt >= o.now {
		return nil
	}
	return h
}

// Poll implements Fabric.
func (o *Omega) Poll(port int) *Packet {
	if o.Peek(port) == nil {
		return nil
	}
	p := o.egress[port].pop()
	o.stats.Delivered++
	o.inflight--
	return p
}

// Tick implements Fabric: every switch column moves at most one packet per
// output wire. Stages are processed last-first so a packet vacating a queue
// frees space for the upstream stage within the same cycle (pipelining),
// while the readyAt stamp still limits each packet to one hop per cycle.
func (o *Omega) Tick(cycle int64) {
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

func (o *Omega) tickStage(t int, cycle int64) {
	nsw := o.ports / o.radix
	k := o.radix
	div := o.routeDiv[t]
	in, rr, outBusy, swCount := o.in[t], o.rr[t], o.outBusy[t], o.swCount[t]
	last := t == o.stages-1
	// Release output wires occupied by multi-word packets.
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
	// Per switch: one pass over the inputs collects each head packet's
	// desired output; a second pass arbitrates per output in round-robin
	// order. This is O(k) per switch instead of O(k²).
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
				continue // the output wire is jammed this cycle
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
					// The wire eats the packet: it leaves its queue and
					// never arrives. Only idempotent prefetch reads are
					// droppable; the PFU reissues the element.
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
				} else if w := o.portWake[gout]; w != nil {
					// Final hop: tell the egress consumer when the packet
					// becomes consumable (readyAt for sinks ticking after
					// the fabric; before-fabric sinks add one themselves).
					w(h.readyAt)
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

// maxRadix bounds the stack-allocated arbitration scratch space.
const maxRadix = 16

var _ Fabric = (*Omega)(nil)

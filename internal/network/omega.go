package network

import (
	"fmt"
	"math/bits"

	"cedar/internal/fault"
	"cedar/internal/sim"
)

// Fabric is a unidirectional interconnection network between n ingress
// ports and n egress ports. Cedar instantiates two fabrics: forward
// (CE→memory) and reverse (memory→CE).
//
// A Fabric is a sim.Component; sources must be ticked before the fabric
// and sinks after it so a packet traverses at most one stage per cycle.
// It is also a sim.Sleeper: NextWakeup keeps the fabric ticking exactly
// while packets are inside it, SetWaker lets Offer rouse a sleeping
// fabric, and SetPortSink/NextAt carry delivery times to sleeping
// egress consumers (PortReady and NextAt both report the first cycle an
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
	// SetWaker installs the fabric's own engine handle; Offer wakes it so
	// an injection rouses a sleeping fabric.
	SetWaker(wake sim.Handle)
	// SetPortSink installs the consumer of an egress port: its PortReady
	// is invoked once for every packet that finishes arriving there.
	SetPortSink(port int, s PortSink)
	// NextAt returns the first cycle ≥ now at which an after-fabric sink
	// could consume the packet at the egress port's head, or Never when
	// the queue is empty. Sleeping consumers fold it into NextWakeup so a
	// requery never forgets work already waiting at the port.
	NextAt(port int, now int64) int64
}

// PortSink is the consumer side of an egress port. PortReady(port, at)
// says a packet has landed in the port's delivery queue and that at is
// the first cycle an after-fabric sink could consume it. One sink serves
// any number of ports (a memory system takes all its modules' ports), so
// wiring a machine costs no per-port callback.
type PortSink interface {
	PortReady(port int, at int64)
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
//
// A tick costs what is queued, not what is built: every stage keeps one
// occupancy bit per input line and a packet count, so Tick skips empty
// stages and tickStage visits only the switches, and of those only the
// inputs, that hold a packet (DESIGN.md, "Occupancy-driven data path").
type Omega struct {
	name   string
	radix  int
	stages int
	ports  int
	// shuf[l] is where the perfect radix-k shuffle wires line l. It is
	// fixed by the geometry and read per packet per hop, so NewOmega
	// computes it once.
	shuf []wire

	st []stage
	// egress[p] is the delivery queue at egress port p.
	egress []wordQueue
	// ingressBusy[p] counts remaining cycles port p's ingress wire is
	// occupied; ingressList tracks the busy ones.
	ingressBusy []uint8
	ingressList []int

	egressCap int
	stats     Stats
	inflight  int
	// heads counts the queue heads tickStage has inspected — the work
	// unit the occupancy bits exist to cut (BenchmarkOmegaTick reports it
	// per hop, the differential test compares it with the full scan's).
	heads int64
	inj   *fault.Injector
	// wake is the fabric's own engine handle (Offer rouses a sleeping
	// fabric through it); sinks[p] is told when a packet finishes arriving
	// at egress port p. Both are optional.
	wake  sim.Handle
	sinks []PortSink
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

// wire is the far end of a shuffle wire: the input line it reaches (the
// base-k digits of the near line rotated left by one) and that line's bit
// in the stage's occupancy words.
type wire struct {
	line, bit int32
}

// stage is one switch column with the queues at its inputs.
type stage struct {
	// in[l] is the queue at input line l.
	in []wordQueue
	// digit[d] is the switch output a packet for egress port d takes here:
	// base-k digit stages-1-t of d (tag control), tabulated so a hop costs
	// a byte load instead of two divisions by a runtime radix.
	digit []uint8
	// rr[l] is the round-robin arbitration pointer for output line l
	// (which input of the switch last won).
	rr []uint8
	// outBusy[l] counts remaining cycles output wire l is occupied by a
	// multi-word packet; busyWires lists the wires with outBusy > 0, so
	// in-flight multi-word transfers are released without a scan.
	outBusy   []uint8
	busyWires []int
	// occ has one bit per input line, set exactly while the line's queue
	// is non-empty. Switch sw owns the occBits-wide field at bit
	// sw*occBits (input i at bit i of it), so a switch's inputs never
	// straddle a word whatever the radix. count is the packets queued at
	// the stage: Σ in[l].len().
	occ   []uint64
	count int
}

// occBits is the width of a switch's field in stage.occ, and maxRadix the
// largest crossbar arity that fits it.
const (
	occShift = 4
	occBits  = 1 << occShift
	maxRadix = occBits
)

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
	// Per-line state is carved from one slab per element type, the way
	// newWordQueues carves its rings, and the per-line counters are bytes
	// (a digit, a round-robin pointer and a wire's busy cycles are all
	// below maxRadix): what a fabric costs core.New is eleven objects
	// whatever its stage count.
	n, k := cfg.Ports, cfg.Radix
	bytes := make([]uint8, (1+3*stages)*n)
	carve := func() []uint8 {
		s := bytes[:n:n]
		bytes = bytes[n:]
		return s
	}
	o := &Omega{
		name:        cfg.Name,
		radix:       k,
		stages:      stages,
		ports:       n,
		shuf:        make([]wire, n),
		st:          make([]stage, stages),
		egress:      newWordQueues(n, egressCap),
		ingressBusy: carve(),
		egressCap:   egressCap,
		sinks:       make([]PortSink, n),
		lastRefuse:  make([]int64, n),
	}
	for p := range o.lastRefuse {
		o.lastRefuse[p] = -1
	}
	for l := range o.shuf {
		v := l * k
		line := v%n + v/n
		o.shuf[l] = wire{line: int32(line), bit: int32(line/k<<occShift + line%k)}
	}
	occWords := (n/k<<occShift + 63) / 64
	queues := newWordQueues(stages*n, 2*cfg.QueueWords)
	occ := make([]uint64, stages*occWords)
	// Stage t routes on digit stages-1-t of the destination (tag control).
	for t, div := stages-1, 1; t >= 0; t, div = t-1, div*k {
		st := &o.st[t]
		st.in = queues[t*n : (t+1)*n : (t+1)*n]
		st.occ = occ[t*occWords : (t+1)*occWords : (t+1)*occWords]
		st.digit, st.rr, st.outBusy = carve(), carve(), carve()
		for d := range st.digit {
			st.digit[d] = uint8(d / div % k)
		}
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
func (o *Omega) SetWaker(wake sim.Handle) { o.wake = wake }

// SetPortSink implements Fabric.
func (o *Omega) SetPortSink(port int, s PortSink) { o.sinks[port] = s }

// NextWakeup implements Fabric (sim.Sleeper): the omega must tick every
// cycle a packet is anywhere inside it — stage queues, egress queues
// (Peek gates on the advancing clock) or the ingress wires — and can
// sleep indefinitely once empty; Offer wakes it back up. Until a waker
// is wired the fabric never sleeps: Offer could not rouse it.
func (o *Omega) NextWakeup(now int64) int64 {
	if o.wake.IsZero() || o.inflight > 0 || len(o.ingressList) > 0 {
		return now
	}
	return sim.Never
}

// NextAt implements Fabric.
func (o *Omega) NextAt(port int, now int64) int64 {
	h := o.egress[port].headPkt()
	if h == nil {
		return sim.Never
	}
	if h.readyAt > now {
		return h.readyAt
	}
	return now
}

// Queued implements Fabric: words buffered in the stage and egress queues.
func (o *Omega) Queued() int {
	w := 0
	for t := range o.st {
		for l := range o.st[t].in {
			w += o.st[t].in[l].words
		}
	}
	for p := range o.egress {
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
	st, to := &o.st[0], o.shuf[p.Src]
	q := &st.in[to.line]
	if !q.canAccept(p.Words()) {
		o.refuse(p.Src)
		return false
	}
	p.readyAt = o.now
	q.push(p)
	st.arrive(to.bit)
	o.ingressBusy[p.Src] = uint8(p.Words())
	o.ingressList = append(o.ingressList, p.Src)
	o.stats.Offered++
	o.inflight++
	// Rouse a sleeping fabric: 0 clamps to the earliest legal cycle, which
	// is the one currently executing (sources tick first).
	o.wake.Wake(0)
	return true
}

// arrive accounts a packet pushed onto the input line whose occupancy
// bit is bit. With depart it is the only place occ and count change: one
// call beside each of the three queue operations a stage sees (Offer's
// push, a hop's push downstream, a hop's or a drop's pop).
func (st *stage) arrive(bit int32) {
	st.occ[bit>>6] |= 1 << (bit & 63)
	st.count++
}

// depart accounts a packet popped from q, the queue of the input line
// whose occupancy bit is bit.
func (st *stage) depart(q *wordQueue, bit int32) {
	if q.n == 0 {
		st.occ[bit>>6] &^= 1 << (bit & 63)
	}
	st.count--
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
// A stage with no packet queued and no wire still busy has nothing to
// move or release and is skipped.
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
		if st := &o.st[t]; st.count > 0 || len(st.busyWires) > 0 {
			o.tickStage(t, cycle)
		}
	}
}

func (o *Omega) tickStage(t int, cycle int64) {
	st := &o.st[t]
	k := o.radix
	in, digit, rr, outBusy := st.in, st.digit, st.rr, st.outBusy
	last := t == o.stages-1
	// Release output wires occupied by multi-word packets.
	if len(st.busyWires) > 0 {
		keep := st.busyWires[:0]
		for _, w := range st.busyWires {
			outBusy[w]--
			if outBusy[w] > 0 {
				keep = append(keep, w)
			}
		}
		st.busyWires = keep
	}
	// Switches in index order, as a scan of every switch would visit them
	// — the occupancy words only drop the ones with nothing queued. Per
	// switch, one pass over the non-empty inputs files each ready head
	// under the output it wants; the outputs then arbitrate in index order.
	var cand [maxRadix]uint32 // cand[out]: inputs whose ready head wants out
	for wi, word := range st.occ {
		for word != 0 {
			field := uint(bits.TrailingZeros64(word)) &^ (occBits - 1)
			inputs := uint32(word>>field) & (1<<occBits - 1)
			word &^= (1<<occBits - 1) << field
			swBit := wi<<6 + int(field) // occupancy bit of the switch's input 0
			base := (swBit >> occShift) * k
			outMask := uint32(0)
			for m := inputs; m != 0; m &= m - 1 {
				inp := uint(bits.TrailingZeros32(m))
				h := in[base+int(inp)].first()
				o.heads++
				if h.readyAt > cycle {
					continue
				}
				out := digit[h.Dst]
				if outMask&(1<<out) == 0 {
					outMask |= 1 << out
					cand[out] = 0
				}
				cand[out] |= 1 << inp
			}
			for ; outMask != 0; outMask &= outMask - 1 {
				out := bits.TrailingZeros32(outMask)
				gout := base + out
				if outBusy[gout] > 0 {
					continue
				}
				if o.inj != nil && o.inj.StageJam(o.name, t, gout, cycle) {
					continue // the output wire is jammed this cycle
				}
				// Round robin: the first candidate after the last winner,
				// wrapping to the lowest. Every other candidate waits.
				c := cand[out]
				if after := c &^ (2<<rr[gout] - 1); after != 0 {
					c = after
				}
				inp := bits.TrailingZeros32(c)
				src := &in[base+inp]
				h := src.first()
				if o.inj != nil && droppable(h) && o.inj.LinkDrop(o.name, t, gout, cycle) {
					// The wire eats the packet: it leaves its queue and
					// never arrives. Only idempotent prefetch reads are
					// droppable; the PFU reissues the element.
					src.pop()
					st.depart(src, int32(swBit+inp))
					o.inflight--
					continue
				}
				dst, to := &o.egress[gout], o.shuf[gout]
				if !last {
					dst = &o.st[t+1].in[to.line]
				}
				if !dst.canAccept(h.Words()) {
					continue // head-of-line blocking: this output stalls
				}
				src.pop()
				st.depart(src, int32(swBit+inp))
				h.readyAt = cycle + int64(h.Words())
				dst.push(h)
				if !last {
					o.st[t+1].arrive(to.bit)
				} else if s := o.sinks[gout]; s != nil {
					// Final hop: tell the egress consumer when the packet
					// becomes consumable (readyAt for sinks ticking after
					// the fabric; before-fabric sinks add one themselves).
					s.PortReady(gout, h.readyAt)
				}
				rr[gout] = uint8(inp)
				if w := h.Words() - 1; w > 0 {
					outBusy[gout] = uint8(w)
					st.busyWires = append(st.busyWires, gout)
				}
				o.stats.WordHops += int64(h.Words())
			}
		}
	}
}

var _ Fabric = (*Omega)(nil)

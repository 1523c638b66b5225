package network

// Deferred submission: the fabric half of the intra-run parallel
// engine's mailbox contract.
//
// On a sharded engine, cluster components (CEs, PFUs) call Offer and
// Poll during phase A, concurrently across shards. Each fabric port is
// owned by exactly one caller, so the per-port halves of those calls —
// the ingress wire, the stage-0 line queue (the radix-k shuffle maps
// each source port to a distinct line), the egress queue, the refusal
// dedup stamp — stay inline: they are shard-private state. Everything
// shared across ports (traffic counters, the inflight census, the
// ingress occupancy list, switch occupancy counts, the crossbar's
// arrival-order heap, the fabric's own wake) is instead recorded in the
// offering port's shard mailbox and replayed by DrainShards in fixed
// shard order between phase A and the hub pass.
//
// Ownership is per fabric SIDE, not just per port: the same port number
// can name a CE on one fabric's egress and a memory module on the other
// fabric's ingress (modules are spread over the shared port space, so
// the index ranges overlap). The forward fabric is offered by cluster
// components and polled by global memory; the reverse fabric is the
// mirror image. SetShards therefore takes two maps — ingressOf governs
// Offer (and its refusals), egressOf governs Poll — and a nil map means
// that side is driven entirely from the hub pass and stays inline.
//
// Replay order equals the order a sequential pass would have produced:
// shards are registered cluster-major, components tick in index order
// within a shard, and each mailbox preserves offer order — so the
// ingress list, the crossbar sequence numbers, and every counter are
// byte-identical to the unsharded run. Hub-side calls happen after
// DrainShards, in the serial hub pass, exactly as on an unsharded
// engine.

// shardBox is one shard's deferred fabric effects for one cycle.
type shardBox struct {
	accepted []int     // omega: accepted ingress ports, in offer order
	pkts     []*Packet // crossbar: offered packets, in offer order

	offered, refused, refusedCyc, delivered int64
	inflight                                int
	wake                                    bool
}

// portShards resolves port→mailbox for a fabric; nil means unsharded
// (every call inline).
type portShards struct {
	ingressOf []int
	egressOf  []int
	boxes     []shardBox
}

func newPortShards(ports int, ingressOf, egressOf func(port int) int, n int) *portShards {
	side := func(of func(port int) int) []int {
		m := make([]int, ports)
		for p := 0; p < ports; p++ {
			if of != nil {
				m[p] = of(p)
			} else {
				m[p] = -1
			}
		}
		return m
	}
	return &portShards{ingressOf: side(ingressOf), egressOf: side(egressOf), boxes: make([]shardBox, n)}
}

// inBox returns the mailbox for Offer-side calls on the given port, or
// nil when the port's offering caller is hub-owned (or the fabric
// unsharded) and must act inline.
func (ps *portShards) inBox(port int) *shardBox {
	if ps == nil {
		return nil
	}
	if s := ps.ingressOf[port]; s >= 0 {
		return &ps.boxes[s]
	}
	return nil
}

// outBox is inBox for Poll-side calls.
func (ps *portShards) outBox(port int) *shardBox {
	if ps == nil {
		return nil
	}
	if s := ps.egressOf[port]; s >= 0 {
		return &ps.boxes[s]
	}
	return nil
}

// SetShards implements Fabric: install the per-side port→shard
// ownership maps.
func (o *Omega) SetShards(ingressOf, egressOf func(port int) int, n int) {
	o.shards = newPortShards(o.ports, ingressOf, egressOf, n)
}

// DrainShards implements Fabric: replay every shard's deferred effects
// in shard order. Accepted sources re-run the shared half of Offer —
// the switch occupancy count and the ingress wire list — in the same
// order a sequential pass interleaved them.
func (o *Omega) DrainShards() {
	if o.shards == nil {
		return
	}
	for s := range o.shards.boxes {
		b := &o.shards.boxes[s]
		for _, src := range b.accepted {
			line := o.shufTab[src]
			o.swCount[0][line/o.radix]++
			o.ingressList = append(o.ingressList, src)
		}
		o.stats.Offered += b.offered
		o.stats.Refused += b.refused
		o.stats.RefusedCyc += b.refusedCyc
		o.stats.Delivered += b.delivered
		o.inflight += b.inflight
		if b.wake && o.wake != nil {
			o.wake(0) // lands on the executing cycle: the fabric ticks next
		}
		b.accepted = b.accepted[:0]
		b.offered, b.refused, b.refusedCyc, b.delivered = 0, 0, 0, 0
		b.inflight = 0
		b.wake = false
	}
}

// SetShards implements Fabric.
func (c *Crossbar) SetShards(ingressOf, egressOf func(port int) int, n int) {
	c.shards = newPortShards(c.ports, ingressOf, egressOf, n)
}

// DrainShards implements Fabric: offered packets enter the transit heap
// in shard-major offer order, so sequence numbers — the deterministic
// arrival tie-break — match the sequential run.
func (c *Crossbar) DrainShards() {
	if c.shards == nil {
		return
	}
	for s := range c.shards.boxes {
		b := &c.shards.boxes[s]
		for i, p := range b.pkts {
			p.readyAt = -1 // filled in when Tick schedules it
			c.seq++
			c.pending.push(pendingPkt{pkt: p, seq: c.seq})
			c.stats.Offered++
			c.inflight++
			b.pkts[i] = nil
		}
		if len(b.pkts) > 0 && c.wake != nil {
			c.wake(0)
		}
		b.pkts = b.pkts[:0]
		c.stats.Delivered += b.delivered
		c.inflight += b.inflight
		b.delivered = 0
		b.inflight = 0
	}
}

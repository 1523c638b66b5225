package network

// PacketPool is a freelist of Packets for the per-cycle issue paths. The
// packet lifecycle is linear — a CE or PFU allocates a request, the
// forward fabric carries it, the memory module rewrites it in place into
// the reply, the reverse fabric carries it back, and the issuing CE
// consumes it — so the consumer can hand the dead packet straight back to
// the pool. A machine owns one pool, shared by every CE and PFU: a machine
// runs on one goroutine, so the pool needs no locking and stays
// deterministic, and a packet retired by one CE may be reissued by
// another (Get zeroes it). A packet dropped by fault injection simply
// never returns; the pool forgets it and the garbage collector takes over.
//
// The freelist threads through the packets' next links, the same link
// every WordQueue uses: a packet is in at most one list at a time — the
// pool's, one fabric queue's, one CE's queue of stores the forward fabric
// refused, or none while a component holds it. That is why Put needs the
// only live reference.
//
// An empty pool refills from a slab as large as every packet it has built
// so far (4 the first time): a machine that peaks at P packets in flight
// costs one object per refill — at most 1 + log2(P/4) per run — instead
// of one per packet, and Put never grows anything.
type PacketPool struct {
	free *Packet
	made int // packets built so far
}

const poolFirstSlab = 4

// Get returns a zeroed packet, reusing a retired one when available.
func (p *PacketPool) Get() *Packet {
	if p.free == nil {
		p.refill()
	}
	pkt := p.free
	p.free = pkt.next
	*pkt = Packet{}
	return pkt
}

// refill restocks an empty pool with the next slab, linked in order.
func (p *PacketPool) refill() {
	n := max(p.made, poolFirstSlab)
	p.made += n
	slab := make([]Packet, n) // pool refill: one slab doubling the machine's packets, at most 1 + log2(peak/4) times per machine per run; steady state reuses retired packets
	for i := range slab[:n-1] {
		slab[i].next = &slab[i+1]
	}
	p.free = &slab[0]
}

// Put retires a packet. The caller must hold the only live reference.
func (p *PacketPool) Put(pkt *Packet) {
	if pkt != nil {
		pkt.next, p.free = p.free, pkt
	}
}

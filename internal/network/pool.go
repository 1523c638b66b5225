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
// An empty pool refills from a slab as large as every packet it has built
// so far (4 the first time), and sizes the freelist to hold all of them:
// a machine that peaks at P packets in flight costs two objects per
// refill — at most 2·(1 + log2(P/4)) per run — instead of one per packet,
// and Put never grows the list.
type PacketPool struct {
	free []*Packet
	made int // packets built so far
}

const poolFirstSlab = 4

// Get returns a zeroed packet, reusing a retired one when available.
func (p *PacketPool) Get() *Packet {
	if len(p.free) == 0 {
		p.refill()
	}
	n := len(p.free)
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*pkt = Packet{}
	return pkt
}

// refill restocks an empty pool with the next slab.
func (p *PacketPool) refill() {
	n := max(p.made, poolFirstSlab)
	p.made += n
	slab, free := make([]Packet, n), make([]*Packet, 0, p.made) // pool refill: a slab and a freelist, each doubling the machine's packets, at most 1 + log2(peak/4) times per machine per run; steady state reuses retired packets
	for i := len(slab) - 1; i >= 0; i-- {
		free = append(free, &slab[i])
	}
	p.free = free
}

// Put retires a packet. The caller must hold the only live reference.
func (p *PacketPool) Put(pkt *Packet) {
	if pkt != nil {
		p.free = append(p.free, pkt)
	}
}

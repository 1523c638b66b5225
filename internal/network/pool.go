package network

// PacketPool is a freelist of Packets for the per-cycle issue paths. The
// packet lifecycle is linear — a CE or PFU allocates a request, the
// forward fabric carries it, the memory module rewrites it in place into
// the reply, the reverse fabric carries it back, and the issuing CE
// consumes it — so the consumer can hand the dead packet straight back to
// the pool that built it. Each CE owns one pool (shared with its PFU,
// which issues on the same port): packets never migrate between CEs, so
// the pool needs no locking and stays deterministic. A packet dropped by
// fault injection simply never returns; the pool forgets it and the
// garbage collector takes over.
//
// An empty pool refills from a slab, 4 packets the first time and twice
// the last up to 64, and sizes the freelist to hold every packet it has
// built: a pool that peaks at P packets in flight costs two objects per
// refill — at most 2·(5 + P/64) per run — instead of one per packet, and
// Put never grows the list.
type PacketPool struct {
	free []*Packet
	slab int // packets in the last slab
	made int // packets built so far
}

const (
	poolFirstSlab = 4
	poolMaxSlab   = 64
)

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
	p.slab = min(max(2*p.slab, poolFirstSlab), poolMaxSlab)
	p.made += p.slab
	slab, free := make([]Packet, p.slab), make([]*Packet, 0, p.made) //lint:allow hotalloc pool refill: a slab and a freelist, at most 5 + peak/64 times per pool per run (slabs double from 4 to 64); steady state reuses retired packets
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

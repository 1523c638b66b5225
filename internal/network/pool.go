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
//
// The pool also holds the machine's word slab (Words), from which every
// PFU sharing the pool carves its prefetch buffer: the PFUs of a machine
// reach it through the pool they already hold, so n buffers cost
// 1 + log2(n) objects rather than n.
type PacketPool struct {
	free  *Packet
	made  int // packets built so far
	words Slab[int64]
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

// Words returns a zeroed region of n words from the pool's word slab,
// for a PFU's prefetch buffer.
func (p *PacketPool) Words(n int) []int64 { return p.words.Take(n) }

// Slab carves zeroed slices from chunks it makes on demand, by the pool's
// refill rule: a take that does not fit the current chunk's remainder
// opens a fresh chunk as large as every chunk made so far (and at least
// the take), abandoning that remainder. So k equal takes cost 1 + log2(k)
// chunks when k is a power of two, instead of k objects. A taken region
// has cap == len, so an append to it reallocates instead of reaching its
// neighbour, and it is never handed out again: a slab serves state that,
// once touched, lives as long as its machine. The zero Slab is empty and
// ready.
type Slab[T any] struct {
	free []T // the current chunk's untaken tail
	made int // elements in every chunk made so far
}

// Take returns n zeroed elements.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		c := max(s.made, n)
		s.made += c
		s.free = make([]T, c) // slab refill: each chunk at least doubles what the slab made, so at most 1 + log2(made/first chunk) chunks per slab
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return t
}

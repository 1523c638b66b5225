package network

// wordQueue is a FIFO of packets with a capacity measured in 64-bit words,
// matching the word-granular buffering of the Cedar crossbar ports. It is
// a fixed ring buffer: queues sit on the simulator's hottest path and must
// not allocate per packet.
//
// An empty queue always accepts one packet even if the packet is longer
// than the capacity; this models cut-through of a long packet that is
// streaming across the queue and avoids deadlock for packets longer than
// the two-word hardware buffers.
type wordQueue struct {
	capWords int
	words    int
	ring     []*Packet
	head     int
	n        int
}

// newWordQueues builds n queues of capWords words whose rings are carved
// from one slab, so a fabric stage costs one allocation, not one per line.
// The three-index slices cap each ring at its own slots.
func newWordQueues(n, capWords int) []wordQueue {
	// At most one packet per word, plus one slot for the oversized
	// packet an empty queue must accept.
	slots := capWords + 1
	slab := make([]*Packet, n*slots)
	qs := make([]wordQueue, n)
	for i := range qs {
		qs[i] = wordQueue{capWords: capWords, ring: slab[i*slots : (i+1)*slots : (i+1)*slots]}
	}
	return qs
}

// canAccept reports whether a packet of w words may be pushed now.
func (q *wordQueue) canAccept(w int) bool {
	if q.n == 0 {
		return true
	}
	return q.n < len(q.ring) && q.words+w <= q.capWords
}

// push appends the packet. The caller must have checked canAccept.
func (q *wordQueue) push(p *Packet) {
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = p
	q.n++
	q.words += p.Words()
}

// headPkt returns the oldest packet without removing it, or nil.
func (q *wordQueue) headPkt() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

// first returns the oldest packet of a queue the caller knows is
// non-empty (the omega's occupancy bits say so), skipping headPkt's check.
func (q *wordQueue) first() *Packet { return q.ring[q.head] }

// pop removes and returns the oldest packet, or nil.
func (q *wordQueue) pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	q.words -= p.Words()
	return p
}

// empty reports whether the queue holds no packets.
func (q *wordQueue) empty() bool { return q.n == 0 }

// len returns the number of queued packets.
func (q *wordQueue) len() int { return q.n }

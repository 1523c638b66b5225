package network

// wordQueue is a FIFO of packets threaded through their next links. Its
// capacity in 64-bit words, matching the word-granular buffering of the
// Cedar crossbar ports, belongs to the fabric that owns the line and is
// passed to canAccept. A queue costs the packets in it, which the pool
// has already paid for: it owns no storage, so a line that never sees a
// packet costs three words, and push and pop never allocate. A packet is
// in at most one list at a time (PacketPool says which lists there are).
type wordQueue struct {
	head, tail *Packet
	words      int
}

// canAccept reports whether a packet of w words may be pushed now onto a
// line of capWords words.
//
// An empty queue always accepts one packet even if the packet is longer
// than the capacity; this models cut-through of a long packet that is
// streaming across the queue and avoids deadlock for packets longer than
// the two-word hardware buffers. The word bound also bounds the packet
// count, because every packet is at least one word (Kind.WireWords).
func (q *wordQueue) canAccept(w, capWords int) bool {
	return q.head == nil || q.words+w <= capWords
}

// push appends the packet, which no list may hold. The caller must have
// checked canAccept, unless the line is unbounded.
func (q *wordQueue) push(p *Packet) {
	if q.head == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.words += p.Words()
}

// pop removes and returns the oldest packet, its link cleared, or nil.
func (q *wordQueue) pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.words -= p.Words()
	return p
}

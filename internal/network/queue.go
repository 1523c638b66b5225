package network

// WordQueue is a FIFO of packets threaded through their next links. It is
// the package's one packet list: every omega line, the crossbar egress and,
// outside the package, a CE's refused stores are WordQueues. Its capacity
// in 64-bit words, matching the word-granular buffering of the Cedar
// crossbar ports, belongs to the owner of the line and is passed to
// CanAccept. A queue costs the packets in it, which the pool has already
// paid for: it owns no storage, so a line that never sees a packet costs
// three words, and no operation allocates. A packet is in at most one list
// at a time (PacketPool says which lists there are).
type WordQueue struct {
	head, tail *Packet
	words      int
}

// CanAccept reports whether a packet of w words may be pushed now onto a
// line of capWords words.
//
// An empty queue always accepts one packet even if the packet is longer
// than the capacity; this models cut-through of a long packet that is
// streaming across the queue and avoids deadlock for packets longer than
// the two-word hardware buffers. The word bound also bounds the packet
// count, because every packet is at least one word (Kind.WireWords).
func (q *WordQueue) CanAccept(w, capWords int) bool {
	return q.head == nil || q.words+w <= capWords
}

// Push appends the packet, which no list may hold. The caller must have
// checked CanAccept, unless the line is unbounded.
func (q *WordQueue) Push(p *Packet) {
	if q.head == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.words += p.Words()
}

// PushFront puts back at the head a packet, which no list may hold, that
// the caller popped and could not pass on.
func (q *WordQueue) PushFront(p *Packet) {
	if q.head == nil {
		q.tail = p
	}
	p.next, q.head = q.head, p
	q.words += p.Words()
}

// Pop removes and returns the oldest packet, its link cleared, or nil.
func (q *WordQueue) Pop() *Packet {
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

// Head returns the oldest packet without removing it, or nil.
func (q *WordQueue) Head() *Packet { return q.head }

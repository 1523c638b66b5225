// Package cmem models an Alliant FX/8 cluster memory: the interleaved
// memory behind a cluster's shared cache. Its bandwidth is half the cache
// bandwidth (192 MB/s vs 384 MB/s per cluster in the paper's terms, i.e.
// 4 vs 8 words per instruction cycle).
//
// The model is a pipelined word server: requests are granted word credits
// at wordsPerCyc per cycle and complete latency cycles after their last
// word is granted. Cache line fills and write-backs are its only clients;
// CEs reach cluster memory through the cache.
package cmem

import (
	"cedar/internal/gmem"
	"cedar/internal/sim"
)

// Memory is one cluster's memory.
type Memory struct {
	wordsPerCyc int
	latency     int64
	data        *gmem.Store

	queue  []pending
	firing []firing
	wake   sim.Handle
}

// Sink receives transfer completions. Completions carry the caller's tag
// instead of a per-request closure so that submitting on the per-cycle
// hot path allocates nothing (the cache encodes the line address in the
// tag and implements FillDone once).
type Sink interface {
	FillDone(tag uint64, cycle int64)
}

type pending struct {
	remaining int
	sink      Sink
	tag       uint64
}

type firing struct {
	at   int64
	sink Sink
	tag  uint64
}

// New builds a cluster memory with the given bandwidth (words/cycle) and
// access latency (cycles). A nil store allocates a fresh one.
func New(wordsPerCyc int, latency int, data *gmem.Store) *Memory {
	if data == nil {
		data = gmem.NewStore()
	}
	if wordsPerCyc < 1 {
		wordsPerCyc = 1
	}
	return &Memory{wordsPerCyc: wordsPerCyc, latency: int64(latency), data: data}
}

// Store returns the backdoor store.
func (m *Memory) Store() *gmem.Store { return m.data }

// Submit enqueues a transfer of words; sink.FillDone(tag, cycle) fires
// during the Tick in which the transfer completes (sink may be nil for
// fire-and-forget write-backs). There is no back-pressure: the queue is
// the cache's miss traffic, already bounded by MSHR limits upstream.
func (m *Memory) Submit(words int, sink Sink, tag uint64) {
	if words < 1 {
		words = 1
	}
	m.queue = append(m.queue, pending{remaining: words, sink: sink, tag: tag})
	m.wake.Wake(0) // clamps to the currently executing cycle
}

// SetWaker installs the memory's engine handle; Submit wakes it to rouse
// a sleeping memory. Until one is wired the memory never sleeps.
func (m *Memory) SetWaker(wake sim.Handle) { m.wake = wake }

// NextWakeup implements sim.Sleeper: now while transfers hold word
// credits (one grant pass per cycle), the earliest completion otherwise.
func (m *Memory) NextWakeup(now int64) int64 {
	if m.wake.IsZero() || len(m.queue) > 0 {
		return now
	}
	w := sim.Never
	for i := range m.firing {
		if at := m.firing[i].at; at < w {
			w = at
		}
	}
	if w < now {
		return now
	}
	return w
}

// Idle reports whether no transfers are queued or completing.
func (m *Memory) Idle() bool { return len(m.queue) == 0 && len(m.firing) == 0 }

// Tick grants word credits to the queue head(s) and fires due completions.
func (m *Memory) Tick(cycle int64) {
	// Fire completions that are due. The list stays short (bounded by
	// upstream MSHRs), so a linear scan is fine and keeps order stable.
	if len(m.firing) > 0 {
		keep := m.firing[:0]
		for _, f := range m.firing {
			if f.at <= cycle {
				f.sink.FillDone(f.tag, cycle)
			} else {
				keep = append(keep, f)
			}
		}
		m.firing = keep
	}

	if len(m.queue) == 0 {
		return
	}
	credit := m.wordsPerCyc
	for credit > 0 && len(m.queue) > 0 {
		h := &m.queue[0]
		take := h.remaining
		if take > credit {
			take = credit
		}
		h.remaining -= take
		credit -= take
		if h.remaining == 0 {
			if h.sink != nil {
				m.firing = append(m.firing, firing{at: cycle + m.latency, sink: h.sink, tag: h.tag})
			}
			copy(m.queue, m.queue[1:])
			m.queue = m.queue[:len(m.queue)-1]
		}
	}
}

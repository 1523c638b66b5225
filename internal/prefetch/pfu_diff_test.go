package prefetch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cedar/internal/network"
	"cedar/internal/params"
)

// prefetchUnit is the call surface TestPFUMatchesReference drives on both
// the production PFU and the kept reference.
type prefetchUnit interface {
	Arm(length int, stride int64, mask []bool) error
	Fire(addr uint64) error
	Suspended() bool
	PendingAddr() uint64
	Resume(addr uint64)
	Done() bool
	Busy() bool
	NextWakeup(now int64) int64
	NextConsumableAt() (int64, bool)
	Tick(cycle int64)
	Deliver(pkt *network.Packet, cycle int64) bool
	TryConsume(cycle int64) bool
	Consumed() int
	Finish()
	Stats() Stats
	Err() error
	Outstanding() int
	ArmRetry()
	SetObserver(o BlockObserver)
}

// request is what a differential test reads of an issued packet.
type request struct {
	tag   uint32
	addr  uint64
	dst   int
	issue int64
}

// wire is a forward fabric that accepts or refuses as its test says and
// records each accepted request. The PFU calls nothing but Offer.
type wire struct {
	network.Fabric
	refuse bool
	sent   []request
	pool   *network.PacketPool
}

func (w *wire) Offer(p *network.Packet) bool {
	if w.refuse {
		return false
	}
	w.sent = append(w.sent, request{tag: p.Tag, addr: p.Addr, dst: p.Dst, issue: p.Issue})
	w.pool.Put(p)
	return true
}

// reply is one answer the test will deliver to both PFUs.
type reply struct {
	kind network.Kind
	req  request
}

// block is one fired block as an observer saw it.
type block struct {
	first    int64
	arrivals []int64
}

// unitState is what a differential step compares of both PFUs after
// every cycle.
type unitState struct {
	stats          Stats
	done           bool
	out, consumed  int
	consumableAt   int64
	consumable     bool
	wake, wakeNext int64
	err            string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestPFUMatchesReference drives the production PFU and the fat-slot
// reference through the same seeded call sequence, healthy and
// retry-armed: blocks armed shorter and longer than the one before, with
// and without masks, re-armed mid-block so stale-epoch replies arrive,
// strides that cross pages and suspend, issues refused by back-pressure,
// replies out of order after random latencies, and — only on a
// retry-armed pair, the only kind a fault plan that bounces or loses
// reads builds — NACKs, lost requests that time out, late duplicates, and
// NACK rates high enough to exhaust the retry budget. Every cycle both must
// issue the same requests and answer every call alike: Stats, whether a
// word could be consumed, Done, Busy, NextWakeup, NextConsumableAt,
// Outstanding, suspension and Err; at the end the observers must have
// seen the same blocks. The seeds together must reach every path named.
func TestPFUMatchesReference(t *testing.T) {
	for _, retry := range []bool{false, true} {
		var sum Stats
		failed := false
		for seed := int64(1); seed <= 24; seed++ {
			ok := t.Run(fmt.Sprintf("seed%d/retry=%v", seed, retry), func(t *testing.T) {
				st, f := diffPFU(t, seed, retry)
				sum.Blocks += st.Blocks
				sum.Dropped += st.Dropped
				sum.Suspends += st.Suspends
				sum.RefusedCyc += st.RefusedCyc
				sum.Nacks += st.Nacks
				sum.Timeouts += st.Timeouts
				sum.Retries += st.Retries
				failed = failed || f
			})
			if !ok {
				return // the first mismatch says what differs
			}
		}
		if sum.Blocks < 200 || sum.Dropped == 0 || sum.Suspends == 0 || sum.RefusedCyc == 0 {
			t.Errorf("retry %v: the seeds missed a path: %+v", retry, sum)
		}
		if retry && (sum.Nacks == 0 || sum.Timeouts == 0 || sum.Retries == 0 || !failed) {
			t.Errorf("the retry-armed seeds missed a fault path (a failed block: %v): %+v", failed, sum)
		}
	}
}

// diffPFU runs one seeded sequence on a fresh pair and returns the
// production PFU's counters and whether a block failed.
func diffPFU(t *testing.T, seed int64, retry bool) (Stats, bool) {
	rng := rand.New(rand.NewSource(seed))
	p := params.Default()
	p.PageWords = []int{16, 64, 512}[rng.Intn(3)]
	p.PFUMaxOutstanding = []int{2, 8, 512}[rng.Intn(3)]
	modFor := func(addr uint64) int { return int(addr % 32) }
	var (
		poolN, poolR = &network.PacketPool{}, &network.PacketPool{}
		wireN, wireR = &wire{pool: poolN}, &wire{pool: poolR}
		u            = New(p, 5, wireN, modFor, poolN)
		ref          = newRefPFU(p, 5, wireR, modFor, poolR)
		units        = [2]prefetchUnit{u, ref}
		seen         [2][]block
	)
	for i, x := range units {
		if retry {
			x.ArmRetry()
		}
		x.SetObserver(func(first int64, arrivals []int64) {
			seen[i] = append(seen[i], block{first, slices.Clone(arrivals)})
		})
	}
	// Fates: on a retry-armed pair, nack and lose of every hundred
	// requests are bounced and lost, and dup more are answered twice.
	nack, lose, dup := 0, 0, 0
	if retry {
		nack, lose, dup = []int{5, 20, 75}[rng.Intn(3)], 5, 5
	}

	// same calls f on both PFUs, the production one first, and requires
	// equal results; f returns a comparable value. It is no t.Helper: a
	// helper's stack walk on every call would be most of the test's time.
	same := func(cycle int64, what string, f func(x prefetchUnit) any) any {
		a, b := f(units[0]), f(units[1])
		if a != b {
			t.Fatalf("cycle %d: %s: PFU %+v, reference %+v", cycle, what, a, b)
		}
		return a
	}
	deliver := func(cycle int64, kind network.Kind, tag uint32) {
		same(cycle, "Deliver", func(x prefetchUnit) any {
			return x.Deliver(&network.Packet{Kind: kind, Tag: tag}, cycle)
		})
	}

	// inflight[c%horizon] holds the replies due at cycle c; every
	// latency is below horizon.
	const horizon = 8192
	inflight := make([][]reply, horizon)
	send := func(at int64, kind network.Kind, req request) {
		inflight[at%horizon] = append(inflight[at%horizon], reply{kind, req})
	}
	var mask []bool
	failed := false
	const cycles = 20000
	for cycle := int64(0); cycle < cycles; cycle++ {
		// Replies due this cycle, in a shuffled order: the network
		// returns them out of request order.
		due := inflight[cycle%horizon]
		rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
		for _, r := range due {
			deliver(cycle, r.kind, r.req.tag)
		}
		inflight[cycle%horizon] = due[:0]

		// A reply of the current epoch past the block, or one of a
		// block long gone, now and then.
		if rng.Intn(200) == 0 {
			epoch := u.epoch
			if epoch != ref.epoch {
				t.Fatalf("cycle %d: epoch %d, reference %d", cycle, epoch, ref.epoch)
			}
			idx := uint32(u.length + rng.Intn(8))
			if rng.Intn(2) == 0 {
				epoch, idx = epoch-1-uint32(rng.Intn(3)), uint32(rng.Intn(max(u.length, 1)))
			}
			deliver(cycle, network.ReadReply, TagBit|(epoch&0x7fff)<<16|idx)
		}

		// The CE's side: arm (mid-block now and then, so replies go
		// stale), fire, resume, consume, finish.
		busy := same(cycle, "Busy", func(x prefetchUnit) any { return x.Busy() }).(bool)
		if (!busy && rng.Intn(20) == 0) || rng.Intn(1500) == 0 {
			length := 1 + rng.Intn(300)
			if rng.Intn(3) == 0 {
				length = 1 + rng.Intn(24)
			}
			mask = nil
			if rng.Intn(4) == 0 {
				mask = make([]bool, length)
				for i := range mask {
					mask[i] = rng.Intn(10) < 7
				}
			}
			if rng.Intn(50) == 0 {
				length = []int{0, p.PFUBufferWords + 1}[rng.Intn(2)] // rejected, state kept
			}
			stride := int64(1 + rng.Intn(40))
			if rng.Intn(8) == 0 {
				stride = -stride
			}
			base := uint64(1<<20 + rng.Intn(1<<16))
			same(cycle, "Arm", func(x prefetchUnit) any { return errText(x.Arm(length, stride, mask)) })
			if rng.Intn(10) != 0 {
				same(cycle, "Fire", func(x prefetchUnit) any { return errText(x.Fire(base)) })
			}
		}
		if rng.Intn(400) == 0 {
			addr := uint64(rng.Intn(1 << 16))
			same(cycle, "Fire", func(x prefetchUnit) any { return errText(x.Fire(addr)) })
		}
		if same(cycle, "Suspended", func(x prefetchUnit) any { return x.Suspended() }).(bool) && rng.Intn(3) == 0 {
			addr := same(cycle, "PendingAddr", func(x prefetchUnit) any { return x.PendingAddr() }).(uint64)
			if rng.Intn(4) == 0 {
				addr = uint64(rng.Intn(1<<10)) * uint64(p.PageWords) // a translated page
			}
			same(cycle, "Resume", func(x prefetchUnit) any { x.Resume(addr); return nil })
		}
		if rng.Intn(300) == 0 {
			same(cycle, "Finish", func(x prefetchUnit) any { x.Finish(); return nil })
		}

		wireN.refuse = rng.Intn(6) == 0
		wireR.refuse = wireN.refuse
		same(cycle, "Tick", func(x prefetchUnit) any { x.Tick(cycle); return nil })
		if !slices.Equal(wireN.sent, wireR.sent) {
			t.Fatalf("cycle %d: PFU issued %+v, reference %+v", cycle, wireN.sent, wireR.sent)
		}
		for _, req := range wireN.sent {
			lat := int64(1 + rng.Intn(40))
			if rng.Intn(100) == 0 {
				lat += int64(rng.Intn(3 * retryTimeout)) // late: may outlive its timeout
			}
			switch f := rng.Intn(100); {
			case f < nack:
				send(cycle+lat, network.NackReply, req)
			case f < nack+lose:
				// The wire ate it; only the timeout brings it back.
			case f < nack+lose+dup:
				send(cycle+lat, network.ReadReply, req)
				send(cycle+lat+int64(rng.Intn(200)), network.ReadReply, req)
			default:
				send(cycle+lat, network.ReadReply, req)
			}
		}
		wireN.sent, wireR.sent = wireN.sent[:0], wireR.sent[:0]

		for rng.Intn(3) != 0 {
			if !same(cycle, "TryConsume", func(x prefetchUnit) any { return x.TryConsume(cycle) }).(bool) {
				break
			}
		}
		st := same(cycle, "state", func(x prefetchUnit) any {
			s := unitState{stats: x.Stats(), done: x.Done(), out: x.Outstanding(), consumed: x.Consumed(),
				wake: x.NextWakeup(cycle), wakeNext: x.NextWakeup(cycle + 1), err: errText(x.Err())}
			s.consumableAt, s.consumable = x.NextConsumableAt()
			return s
		}).(unitState)
		failed = failed || st.err != ""
	}
	if !slices.EqualFunc(seen[0], seen[1], func(a, b block) bool {
		return a.first == b.first && slices.Equal(a.arrivals, b.arrivals)
	}) {
		t.Errorf("observers saw %d and %d blocks, not the same ones", len(seen[0]), len(seen[1]))
	}
	return u.Stats(), failed
}

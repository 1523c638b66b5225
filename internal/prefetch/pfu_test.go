package prefetch

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"cedar/internal/gmem"
	"cedar/internal/network"
	"cedar/internal/params"
	"cedar/internal/sim"
)

// rig wires one PFU to memory through real fabrics, with a glue component
// that drains the reverse port into the PFU (the CE's role). The PFU
// offers its requests through a tap on the forward fabric.
type rig struct {
	p          params.Machine
	eng        *sim.Engine
	pfu        *PFU
	fwd        *tap
	autoResume bool // resume immediately on page crossing, as a CE would
}

// tap is a forward fabric that records every request it accepts.
type tap struct {
	network.Fabric
	sent []request
}

func (w *tap) Offer(p *network.Packet) bool {
	if !w.Fabric.Offer(p) {
		return false
	}
	w.sent = append(w.sent, request{tag: p.Tag, addr: p.Addr, dst: p.Dst, issue: p.Issue})
	return true
}

func newRig(t *testing.T) *rig {
	t.Helper()
	p := params.Default()
	fwd := network.NewOmega(network.OmegaConfig{Name: "fwd", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	rev := network.NewOmega(network.OmegaConfig{Name: "rev", Ports: p.NetPorts, Radix: p.NetRadix, QueueWords: p.NetQueueWords})
	mem := gmem.New(p, fwd, rev, nil)
	pool, in := &network.PacketPool{}, &tap{Fabric: fwd}
	pfu := New(p, 0, in, mem.ModuleFor, pool)
	eng := sim.New()
	r := &rig{p: p, eng: eng, pfu: pfu, fwd: in}
	drainer := sim.Func{ID: "ce0", F: func(cycle int64) {
		for {
			pkt := rev.Poll(0)
			if pkt == nil {
				break
			}
			if !pfu.Deliver(pkt, cycle) {
				t.Fatalf("non-PFU reply: %v", pkt)
			}
			pool.Put(pkt) // as the CE does: replies retire to the issuer's pool
		}
		if r.autoResume && pfu.Suspended() {
			pfu.Resume(pfu.PendingAddr())
		}
		pfu.Tick(cycle)
	}}
	eng.Register(drainer, fwd, mem, rev)
	return r
}

func (r *rig) runUntilDone(t *testing.T, limit int64) {
	t.Helper()
	if err := r.eng.RunUntil(r.pfu.Done, limit); err != nil {
		t.Fatalf("prefetch did not complete: %v", err)
	}
}

func TestPrefetchBlockCompletes(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(32, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(100); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)

	r.consumeAll(t, 32, 100, 2)
	st := r.pfu.Stats()
	if st.Issued != 32 || st.Returned != 32 {
		t.Errorf("stats %+v, want 32 issued/returned", st)
	}
}

func TestPrefetchStreamsOnePerCycle(t *testing.T) {
	// A 256-word unit-stride block should stream at ≈1 word/cycle once
	// the pipeline fills: this is the whole point of the PFU versus the
	// 2-outstanding CE limit.
	r := newRig(t)
	const n = 256
	if err := r.pfu.Arm(n, 1, nil); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		first    int64
		arrivals []int64
	}
	r.pfu.SetObserver(func(first int64, arr []int64) {
		rec.first = first
		rec.arrivals = append([]int64(nil), arr...) // arrivals is the PFU's to reuse
	})
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)
	r.pfu.Finish()
	if len(rec.arrivals) != n {
		t.Fatalf("observer saw %d arrivals, want %d", len(rec.arrivals), n)
	}
	lat := rec.arrivals[0] - rec.first
	if lat != 8 {
		t.Errorf("first-word latency = %d, want 8 (unloaded minimum)", lat)
	}
	span := rec.arrivals[len(rec.arrivals)-1] - rec.arrivals[0]
	inter := float64(span) / float64(n-1)
	if inter > 1.05 {
		t.Errorf("interarrival %.3f cycles, want ≈1 (unloaded minimum)", inter)
	}
}

func TestPrefetchModuleConflictStride(t *testing.T) {
	// Stride = MemModules hits a single module: service rate 1/cycle but
	// every word comes from the same place, so interarrival stays ≈1 —
	// while stride of 2×MemModules on the same module is identical. The
	// interesting contrast is a power-of-two stride that hits only half
	// the modules from two PFUs... here we just verify a single PFU on a
	// single module still streams at the module service rate.
	r := newRig(t)
	r.autoResume = true
	const n = 128
	if err := r.pfu.Arm(n, int64(r.p.MemModules), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)
	cyc := r.eng.Cycle()
	limit := int64(n*r.p.MemService) + 60
	if cyc > limit {
		t.Errorf("single-module stream took %d cycles for %d words (limit %d)", cyc, n, limit)
	}
	r.consumeAll(t, n, 0, int64(r.p.MemModules)) // across seven page-crossing resumes
}

func TestPageCrossingSuspends(t *testing.T) {
	r := newRig(t)
	page := uint64(r.p.PageWords)
	// Start 4 words before a page boundary; the 5th address crosses.
	start := page - 4
	if err := r.pfu.Arm(16, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(start); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.RunUntil(r.pfu.Suspended, 1000); err != nil {
		t.Fatalf("never suspended: %v", err)
	}
	if got := r.pfu.Stats().Issued; got != 4 {
		t.Errorf("issued %d before suspend, want 4", got)
	}
	r.pfu.Resume(page)
	r.runUntilDone(t, 10000)
	if got := r.pfu.Stats().Issued; got != 16 {
		t.Errorf("issued %d total, want 16", got)
	}
	if r.pfu.Stats().Suspends != 1 {
		t.Errorf("suspends = %d, want 1", r.pfu.Stats().Suspends)
	}
	r.consumeAll(t, 16, start, 1)
}

func TestRearmInvalidatesOutstanding(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(64, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(6) // a few requests in flight, none returned yet
	if err := r.pfu.Arm(8, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(5000); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)
	st := r.pfu.Stats()
	if st.Dropped == 0 {
		t.Error("expected stale replies to be dropped after re-arm")
	}
	if r.pfu.Consumed() != 0 {
		t.Error("nothing consumed yet")
	}
	// All 8 fresh words must be consumable.
	got := 0
	for cycle := r.eng.Cycle(); got < 8 && cycle < r.eng.Cycle()+100; cycle++ {
		for {
			if !r.pfu.TryConsume(cycle) {
				break
			}
			got++
		}
	}
	if got != 8 {
		t.Fatalf("consumed %d after re-arm, want 8", got)
	}
}

func TestMaskSkipsElements(t *testing.T) {
	r := newRig(t)
	mask := make([]bool, 16)
	for i := range mask {
		mask[i] = i%2 == 0
	}
	if err := r.pfu.Arm(16, 1, mask); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)
	if got := r.pfu.Stats().Issued; got != 8 {
		t.Errorf("issued %d with half mask, want 8", got)
	}
}

func TestArmValidation(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(0, 1, nil); err == nil {
		t.Error("length 0 accepted")
	}
	if err := r.pfu.Arm(r.p.PFUBufferWords+1, 1, nil); err == nil {
		t.Error("oversized block accepted")
	}
	if err := r.pfu.Arm(4, 1, make([]bool, 3)); err == nil {
		t.Error("mismatched mask accepted")
	}
	if err := r.pfu.Fire(0); err == nil {
		t.Error("Fire without Arm accepted")
	}
	if err := r.pfu.Arm(4, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err == nil {
		t.Error("double Fire accepted")
	}
}

func TestConsumeRespectsCEOverhead(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 1000)
	arrived := r.eng.Cycle()
	if r.pfu.TryConsume(arrived) {
		t.Error("consumable immediately at arrival; CE transfer overhead ignored")
	}
	if !r.pfu.TryConsume(arrived + int64(r.p.CELoadOverhead)) {
		t.Error("not consumable after CE overhead elapsed")
	}
}

// consumeAll drains the finished block of n elements in order and checks
// that element i was read from base + i·stride: the buffer keeps no word,
// so the request issued for element i is what ties it to its address.
func (r *rig) consumeAll(t *testing.T, n int, base uint64, stride int64) {
	t.Helper()
	i := 0
	for _, q := range r.fwd.sent {
		if (q.tag&^TagBit)>>16 != r.pfu.epoch&0x7fff {
			continue // an earlier block's request
		}
		want := uint64(int64(base) + int64(i)*stride)
		if idx := int(q.tag & 0xffff); idx != i || q.addr != want {
			t.Fatalf("request %d: element %d at %d, want element %d at %d", i, idx, q.addr, i, want)
		}
		i++
	}
	if i != n {
		t.Fatalf("block issued %d requests, want %d", i, n)
	}
	got := 0
	deadline := r.eng.Cycle() + int64(r.p.CELoadOverhead) + 5
	for cycle := r.eng.Cycle(); cycle < deadline && got < n; cycle++ {
		for r.pfu.TryConsume(cycle) {
			got++
		}
	}
	if got != n {
		t.Fatalf("consumed %d, want %d", got, n)
	}
}

// TestRearmShorterThenLonger walks the buffer through the three cases of
// its block-sized life: first growth, a shorter block (only its own slots
// are cleared, the tail keeps block one's arrivals) and a block longer
// than any before (which must not see that tail as already arrived).
func TestRearmShorterThenLonger(t *testing.T) {
	r := newRig(t)
	if len(r.pfu.buf) != 0 {
		t.Fatalf("New allocated a %d-slot buffer; it should wait for Arm", len(r.pfu.buf))
	}
	for _, blk := range []struct{ n, at int }{{64, 0}, {8, 100}, {128, 50}, {8, 0}} {
		if err := r.pfu.Arm(blk.n, 1, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blk.n; i++ {
			if at := r.pfu.buf[i]; at != 0 {
				t.Fatalf("block of %d: slot %d not cleared by Arm: arrived at %d", blk.n, i, at-1)
			}
		}
		if _, ok := r.pfu.NextConsumableAt(); ok {
			t.Fatalf("block of %d: a word is consumable before Fire", blk.n)
		}
		if err := r.pfu.Fire(uint64(blk.at)); err != nil {
			t.Fatal(err)
		}
		r.runUntilDone(t, 10000)
		r.consumeAll(t, blk.n, uint64(blk.at), 1)
	}
	if got := len(r.pfu.buf); got != 128 {
		t.Errorf("buffer holds %d slots after blocks of 64, 8, 128, 8; want 128 (the longest)", got)
	}
}

// TestStaleReplyBeyondBlockDropped: a reply of the current epoch whose
// element index lies past the armed block — and past the buffer, which is
// only as long as the longest block — is counted and dropped, not indexed.
func TestStaleReplyBeyondBlockDropped(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(8, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint32{8, 9, 511} {
		pkt := &network.Packet{Kind: network.ReadReply, Tag: TagBit | (r.pfu.epoch&0x7fff)<<16 | idx}
		before := r.pfu.Stats().Dropped
		if !r.pfu.Deliver(pkt, 1) {
			t.Fatalf("idx %d: PFU-tagged reply not claimed", idx)
		}
		if got := r.pfu.Stats().Dropped; got != before+1 {
			t.Errorf("idx %d: Dropped went %d → %d, want +1", idx, before, got)
		}
	}
	if r.pfu.Stats().Returned != 0 {
		t.Error("an out-of-block reply was booked as returned")
	}
}

// TestSteadyStateAllocsRearm is the PFU's allocation gate: once the
// buffer and the arrivals record have reached the block length, arming, firing, draining and reporting block after block allocates
// nothing.
func TestSteadyStateAllocsRearm(t *testing.T) {
	r := newRig(t)
	var blocks, words int
	r.pfu.SetObserver(func(_ int64, arrivals []int64) {
		blocks++
		words += len(arrivals)
	})
	block := func() {
		if err := r.pfu.Arm(32, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.pfu.Fire(0); err != nil {
			t.Fatal(err)
		}
		if err := r.eng.RunUntil(r.pfu.Done, 10000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		block()
	}
	if avg := testing.AllocsPerRun(20, block); avg != 0 {
		t.Errorf("a re-armed 32-word block allocates %.1f times, want 0", avg)
	}
	if blocks == 0 || words != 32*blocks {
		t.Errorf("observer saw %d blocks, %d words; want 32 words per block", blocks, words)
	}
}

// TestNackAtUnarmedPFUPanics: a NACK can only come from a plan that
// arms recovery, so one reaching a PFU without ArmRetry is a wiring bug.
// Queued for a reissue nothing would make, it would leave the block
// never Done and its CE asleep; it panics instead.
func TestNackAtUnarmedPFUPanics(t *testing.T) {
	r := newRig(t)
	if err := r.pfu.Arm(4, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(2) // element 0 is in flight
	defer func() {
		if recover() == nil {
			t.Error("a NACK at an unarmed PFU was accepted")
		}
	}()
	r.pfu.Deliver(&network.Packet{Kind: network.NackReply, Tag: TagBit | (r.pfu.epoch&0x7fff)<<16}, r.eng.Cycle())
}

// TestArmCostsItsWords is the PFU's byte gate: a slot is the word's
// arrival, so blocks of 256, 64, 256 and 32 words cost a healthy PFU on a
// pool of its own one 2 KB buffer (8 bytes a word), carved from that
// pool's word slab, and nothing more, and a retry-armed one that buffer
// and one retry table of the same length, grown once. A slot that carries
// the word again (16 bytes) fails the healthy budget twofold. PFUs sharing
// a pool share its slab: eight first Arms on one pool cost 1 + log2(8)
// objects, where a buffer made per PFU costs eight.
func TestArmCostsItsWords(t *testing.T) {
	p := params.Default()
	blocks := func(u *PFU) {
		for _, n := range []int{256, 64, 256, 32} {
			if err := u.Arm(n, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		retry   bool
		objects int64
		bytes   int64
	}{
		{"healthy", false, 1, 2 << 10},
		{"retry-armed", true, 2, 6 << 10},
	} {
		objects, bytes := armCost(func() *PFU {
			u := New(p, 0, nil, nil, nil)
			if tc.retry {
				u.ArmRetry()
			}
			return u
		}, blocks)
		if objects != tc.objects || bytes > tc.bytes {
			t.Errorf("%s: four blocks cost %d objects and %d bytes, want %d and ≤ %d",
				tc.name, objects, bytes, tc.objects, tc.bytes)
		}
		t.Logf("%s: %d objects, %d bytes", tc.name, objects, bytes)
	}
	u := New(p, 0, nil, nil, nil)
	blocks(u)
	if u.retry != nil {
		t.Errorf("a healthy PFU grew a %d-slot retry table", len(u.retry))
	}

	const k = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	shared := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		pool, pfus := &network.PacketPool{}, make([]*PFU, k)
		for i := range pfus {
			pfus[i] = New(p, i, nil, nil, pool)
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, u := range pfus {
			if err := u.Arm(32, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&b)
		shared = min(shared, b.Mallocs-a.Mallocs)
	}
	if shared != 4 {
		t.Errorf("%d PFUs on one pool: first Arms cost %d objects, want 4 (1 + log2(%d) slab chunks)", k, shared, k)
	}
}

// armCost is what f costs, run on a fresh PFU from mk, in objects and
// bytes: least of three tries of ten runs each, on one P with GC off, so
// no other goroutine's allocations land in the count.
func armCost(mk func() *PFU, f func(*PFU)) (objects, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 10
	objects, bytes = math.MaxInt64, math.MaxInt64
	for try := 0; try < 3; try++ {
		us := make([]*PFU, runs)
		for i := range us {
			us[i] = mk()
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, u := range us {
			f(u)
		}
		runtime.ReadMemStats(&b)
		objects = min(objects, int64(b.Mallocs-a.Mallocs)/runs)
		bytes = min(bytes, int64(b.TotalAlloc-a.TotalAlloc)/runs)
	}
	return objects, bytes
}

// TestUnobservedPFUKeepsNoArrivalRecord: the arrival record is for a
// monitor, so a PFU's first Arm on a pool of its own allocates its buffer
// alone, and the record beside it only when an observer is installed; a
// block run without one leaves the PFU with no record at all.
func TestUnobservedPFUKeepsNoArrivalRecord(t *testing.T) {
	p := params.Default()
	for _, tc := range []struct {
		name    string
		observe BlockObserver
		want    float64
	}{
		{"unobserved", nil, 1},
		{"observed", func(int64, []int64) {}, 2},
	} {
		const runs = 10
		pfus := make([]*PFU, runs+1) // AllocsPerRun warms up with one more call
		for i := range pfus {
			pfus[i] = New(p, 0, nil, nil, nil)
			pfus[i].SetObserver(tc.observe)
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			if err := pfus[next].Arm(32, 1, nil); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got != tc.want {
			t.Errorf("%s: a first Arm allocates %.0f objects, want %.0f", tc.name, got, tc.want)
		}
	}

	r := newRig(t)
	if err := r.pfu.Arm(32, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.pfu.Fire(0); err != nil {
		t.Fatal(err)
	}
	r.runUntilDone(t, 10000)
	r.pfu.Finish()
	if r.pfu.arrivals != nil {
		t.Errorf("an unobserved PFU kept a %d-cycle arrival record", cap(r.pfu.arrivals))
	}
}

// blockLife is one block as a BlockTracer saw it.
type blockLife struct{ first, last int64 }

// lives is a BlockTracer that records every block.
type lives []blockLife

func (l *lives) Block(_ int, firstIssue, lastArrival int64) {
	*l = append(*l, blockLife{firstIssue, lastArrival})
}

// TestBlockSpanEndsAtLastArrival runs blocks on one PFU with both an
// observer and a tracer, under the retry machinery, and answers them with
// the replies a faulted run sees beside the real ones: a NACK while a word
// is in flight, then — later than any real arrival — a duplicate of a word
// that already arrived, a NACK for one, a reply past the block's end and
// a reply of the block before. Only a real arrival may end a block: every
// block the tracer sees must end at the latest arrival the observer
// recorded for it.
func TestBlockSpanEndsAtLastArrival(t *testing.T) {
	r := newRig(t)
	r.pfu.ArmRetry()
	var observed, traced lives
	r.pfu.SetObserver(func(first int64, arrivals []int64) {
		observed = append(observed, blockLife{first, slices.Max(arrivals)})
	})
	r.pfu.SetTracer(&traced, 0)
	reply := func(kind network.Kind, epoch uint32, idx int, cycle int64) {
		t.Helper()
		pkt := &network.Packet{Kind: kind, Tag: TagBit | (epoch&0x7fff)<<16 | uint32(idx)}
		if !r.pfu.Deliver(pkt, cycle) {
			t.Fatalf("PFU-tagged reply %v not claimed", pkt)
		}
	}
	const n = 16
	for blk := 0; blk < 3; blk++ {
		if err := r.pfu.Arm(n, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.pfu.Fire(uint64(100 * blk)); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(4) // the first words are in flight, none back
		reply(network.NackReply, r.pfu.epoch, 0, r.eng.Cycle())
		r.runUntilDone(t, 10000)
		late := r.eng.Cycle() + 100
		reply(network.ReadReply, r.pfu.epoch, 1, late)
		reply(network.NackReply, r.pfu.epoch, 2, late)
		reply(network.ReadReply, r.pfu.epoch, n, late)
		reply(network.ReadReply, r.pfu.epoch-1, 3, late)
	}
	r.pfu.Finish()
	st := r.pfu.Stats()
	if st.Nacks != 3 || st.Dropped != 3*4 {
		t.Fatalf("%d NACKs and %d dropped replies, want 3 and 12: the faulted replies did not land as planned", st.Nacks, st.Dropped)
	}
	if len(observed) != 3 || !slices.Equal(traced, observed) {
		t.Errorf("tracer saw blocks %v, observer (first issue, latest arrival) %v", traced, observed)
	}
}

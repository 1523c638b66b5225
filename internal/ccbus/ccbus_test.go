package ccbus

import (
	"testing"

	"cedar/internal/params"
)

func newBus() *Bus {
	b := New(params.Default(), 8)
	return &b
}

func TestConcurrentStartCost(t *testing.T) {
	b := newBus()
	p := params.Default()
	at := b.ConcurrentStart(100, 64)
	if at != 100+int64(p.CDoallStart) {
		t.Fatalf("start completes at %d, want %d", at, 100+int64(p.CDoallStart))
	}
	// A few microseconds, as the paper says.
	us := float64(p.CDoallStart) * params.CycleNS / 1000
	if us < 1 || us > 10 {
		t.Errorf("CDOALL start = %.1f µs, want a few µs", us)
	}
}

func TestClaimsCoverLoopExactlyOnce(t *testing.T) {
	b := newBus()
	b.ConcurrentStart(0, 20)
	seen := map[int]bool{}
	cycle := int64(100)
	for {
		iter, at := b.Claim(cycle)
		cycle = at
		if iter < 0 {
			break
		}
		if seen[iter] {
			t.Fatalf("iteration %d claimed twice", iter)
		}
		seen[iter] = true
	}
	if len(seen) != 20 {
		t.Fatalf("claimed %d iterations, want 20", len(seen))
	}
}

func TestClaimsSerializeOnBus(t *testing.T) {
	b := newBus()
	b.ConcurrentStart(0, 100)
	// 8 CEs all claim at the same cycle: grants must be spaced by the
	// claim cost.
	var ats []int64
	for ce := 0; ce < 8; ce++ {
		_, at := b.Claim(1000)
		ats = append(ats, at)
	}
	cost := int64(params.Default().CCBusClaim)
	for i := 1; i < len(ats); i++ {
		if ats[i]-ats[i-1] != cost {
			t.Fatalf("claim %d at %d, previous at %d; want spacing %d", i, ats[i], ats[i-1], cost)
		}
	}
	if b.Stats().WaitCyc == 0 {
		t.Error("simultaneous claims should record bus wait")
	}
}

func TestClaimBlockStaticChunks(t *testing.T) {
	b := newBus()
	b.ConcurrentStart(0, 30)
	covered := 0
	for {
		first, count, _ := b.ClaimBlock(0, 8)
		if count == 0 {
			break
		}
		if first != covered {
			t.Fatalf("block starts at %d, want %d", first, covered)
		}
		covered += count
	}
	if covered != 30 {
		t.Fatalf("blocks covered %d, want 30", covered)
	}
}

func TestJoinFiresOnLastArrival(t *testing.T) {
	b := newBus()
	b.ConcurrentStart(0, 8)
	var gen int64
	for ce := 0; ce < 7; ce++ {
		g, _, ok := b.JoinArrive(int64(10 + ce))
		gen = g
		if ok {
			t.Fatalf("join fired after %d arrivals", ce+1)
		}
	}
	g, done, ok := b.JoinArrive(50)
	if !ok {
		t.Fatal("join did not fire on 8th arrival")
	}
	if g != gen {
		t.Fatalf("generation changed mid-join: %d vs %d", g, gen)
	}
	if done < 50+int64(params.Default().BarrierClusterCy) {
		t.Errorf("join done at %d, want ≥ %d", done, 50+int64(params.Default().BarrierClusterCy))
	}
	// Earlier arrivals can poll for completion.
	if at, fin := b.JoinDone(gen, done); !fin || at != done {
		t.Errorf("JoinDone(gen, %d) = %d,%v; want %d,true", done, at, fin, done)
	}
	if _, fin := b.JoinDone(gen, done-1); fin {
		t.Error("JoinDone before completion cycle reported true")
	}
}

func TestClaimWithoutLoopReturnsExhausted(t *testing.T) {
	b := newBus()
	if iter, _ := b.Claim(0); iter != -1 {
		t.Fatalf("claim on idle bus returned %d, want -1", iter)
	}
}

func TestTwoLoopsSequential(t *testing.T) {
	b := newBus()
	b.ConcurrentStart(0, 4)
	for i := 0; i < 4; i++ {
		if iter, _ := b.Claim(0); iter != i {
			t.Fatalf("loop1 claim %d != %d", iter, i)
		}
	}
	for ce := 0; ce < 8; ce++ {
		b.JoinArrive(100)
	}
	b.ConcurrentStart(200, 3)
	got := 0
	for {
		iter, _ := b.Claim(200)
		if iter < 0 {
			break
		}
		got++
	}
	if got != 3 {
		t.Fatalf("loop2 yielded %d iterations, want 3", got)
	}
}

package cfrt

import (
	"testing"
	"testing/quick"

	"cedar/internal/ce"
)

func TestGSSChunkSequence(t *testing.T) {
	// Classic GSS on n=100, p=4: 25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, ...
	n, p := 100, 4
	claimed := int64(0)
	var chunks []int
	for {
		c := gssChunk(n, claimed, p)
		if c == 0 {
			break
		}
		chunks = append(chunks, c)
		claimed += int64(c)
	}
	if chunks[0] != 25 {
		t.Errorf("first chunk %d, want 25", chunks[0])
	}
	sum := 0
	for i, c := range chunks {
		sum += c
		if i > 0 && c > chunks[i-1] {
			t.Errorf("chunks not non-increasing: %v", chunks)
			break
		}
	}
	if sum != n {
		t.Errorf("chunks cover %d, want %d", sum, n)
	}
	if last := chunks[len(chunks)-1]; last != 1 {
		t.Errorf("last chunk %d, want 1", last)
	}
}

func TestGSSChunkProperty(t *testing.T) {
	f := func(nn, cc uint16, pp uint8) bool {
		n := int(nn%10000) + 1
		claimed := int64(cc) % int64(n+10)
		p := int(pp%64) + 1
		c := gssChunk(n, claimed, p)
		if claimed >= int64(n) {
			return c == 0
		}
		rem := n - int(claimed)
		return c >= 1 && c <= rem && c >= rem/p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGuidedScheduleCoversAll(t *testing.T) {
	m := mach(t, 4)
	var recs []record
	rt := New(m, Config{UseCedarSync: true},
		XDoall{N: 157, Sched: GuidedSchedule, Body: bodyRecording(&recs, 20)})
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	coverage(t, recs, 157)
}

func TestGuidedScheduleWithoutCedarSync(t *testing.T) {
	m := mach(t, 2)
	var recs []record
	rt := New(m, Config{UseCedarSync: false},
		XDoall{N: 64, Sched: GuidedSchedule, Body: bodyRecording(&recs, 15)})
	if _, err := rt.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	coverage(t, recs, 64)
}

func TestGuidedFewerClaimsThanSelf(t *testing.T) {
	// GSS's point: far fewer scheduling operations for the same loop.
	countClaims := func(sched Schedule) int64 {
		m := mach(t, 4)
		var recs []record
		rt := New(m, Config{UseCedarSync: true},
			XDoall{N: 512, Sched: sched, Body: bodyRecording(&recs, 10)})
		if _, err := rt.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		coverage(t, recs, 512)
		return m.Mem.Stats().SyncOps
	}
	self := countClaims(SelfSchedule)
	guided := countClaims(GuidedSchedule)
	// Both counts include the same barrier and startup-flag traffic
	// (≈290 sync ops of noise); the claim traffic itself drops from 512
	// to ≈P·log(N/P) ≈ 90.
	if float64(guided) >= float64(self)*0.6 {
		t.Errorf("guided used %d sync ops vs self-scheduling's %d; want a large reduction", guided, self)
	}
}

func TestGuidedBalancesIrregularLoop(t *testing.T) {
	// Iterations with wildly uneven cost: guided scheduling must not be
	// much worse than self-scheduling (which has perfect balance), and
	// must clearly beat static chunking (which strands the expensive
	// tail on one CE).
	body := only(func(i int, in *ce.Instr) {
		*in = ce.Instr{Op: ce.OpScalar, Cycles: 10}
		if i >= 480 {
			in.Cycles = 2000 // expensive tail
		}
	})
	run := func(sched Schedule) int64 {
		m := mach(t, 4)
		rt := New(m, Config{UseCedarSync: true},
			XDoall{N: 512, Sched: sched, Body: body})
		res, err := rt.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	static := run(StaticSchedule)
	guided := run(GuidedSchedule)
	if guided >= static {
		t.Errorf("guided (%d cyc) not better than static (%d cyc) on an imbalanced tail", guided, static)
	}
}

package gmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestStoreSparse: a store costs the pages that hold a nonzero word. Zero
// stores to untouched pages, on either side of the written one, add none;
// zeroing the written word keeps its page.
func TestStoreSparse(t *testing.T) {
	s := NewStore()
	if s.Load(1<<40) != 0 {
		t.Error("untouched word should read 0")
	}
	s.StoreWord(1<<40, 9)
	if s.Load(1<<40) != 9 {
		t.Error("round trip failed")
	}
	if old := s.Add(1<<40, 5); old != 9 {
		t.Errorf("Add old = %d, want 9", old)
	}
	if s.Load(1<<40) != 14 {
		t.Error("Add did not store")
	}
	for _, addr := range []uint64{0, 1<<40 - 1, 1<<40 + pageWords, 1 << 41} {
		s.StoreWord(addr, 0)
		if old := s.Add(addr, 0); old != 0 {
			t.Errorf("zero-stored word %#x reads %d", addr, old)
		}
	}
	if s.Footprint() != 1 {
		t.Errorf("footprint %d, want 1 page (only one holds a nonzero word)", s.Footprint())
	}
	s.StoreWord(1<<40, 0)
	if s.Load(1<<40) != 0 {
		t.Error("zero store into a present page did not overwrite the word")
	}
	if s.Footprint() != 1 {
		t.Errorf("footprint %d after zeroing a word, want the page kept", s.Footprint())
	}
}

// TestZeroValueStore: the zero Store is ready to use, and neither it nor
// NewStore's makes the page map until a nonzero store.
func TestZeroValueStore(t *testing.T) {
	var zero Store
	for i, s := range []*Store{&zero, NewStore()} {
		if s.Load(7) != 0 || s.Footprint() != 0 {
			t.Fatalf("store %d is not empty", i)
		}
		s.StoreWord(7, 0)
		if s.pages != nil {
			t.Errorf("store %d: the page map exists before any nonzero store", i)
		}
		if old := s.Add(7, 3); old != 0 || s.Load(7) != 3 {
			t.Errorf("store %d: Add old %d, now %d; want 0, 3", i, old, s.Load(7))
		}
		if s.Footprint() != 1 {
			t.Errorf("store %d: footprint %d, want 1", i, s.Footprint())
		}
	}
}

// TestZeroStoresAllocateNothing: a zero store to a word no nonzero store
// has reached costs no object, on an empty store and on one whose map and
// a neighbouring page already exist.
func TestZeroStoresAllocateNothing(t *testing.T) {
	var empty Store
	var addr uint64
	if got := testing.AllocsPerRun(100, func() {
		addr += pageWords
		empty.StoreWord(addr, 0)
	}); got != 0 {
		t.Errorf("zero stores into an empty store allocate %.1f objects each", got)
	}
	written := NewStore()
	written.StoreWord(3, 1)
	addr = 0
	if got := testing.AllocsPerRun(100, func() {
		addr += pageWords
		written.StoreWord(addr, 0)
		written.Add(addr+1, 0)
	}); got != 0 {
		t.Errorf("zero stores into untouched pages allocate %.1f objects each", got)
	}
	if written.Footprint() != 1 {
		t.Errorf("footprint %d, want the one written page", written.Footprint())
	}
}

// TestStoreMatchesReference drives a Store and a map[uint64]int64 through
// the same seeded StoreWord/Add/Load sequence and requires every read to
// agree. At least half the values written are 0, addresses cluster on
// both sides of page boundaries, and zero writes land on nonzero words.
// The store must hold exactly the pages a nonzero value was written to.
func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Store
		ref := map[uint64]int64{}
		var seen []uint64 // addresses written, in order
		touched := map[uint64]bool{}
		var zeros, writes int
		addr := func() uint64 {
			switch rng.Intn(4) {
			case 0: // one of the two words on each side of a page boundary
				return uint64(1+rng.Intn(8))*pageWords - 2 + uint64(rng.Intn(4))
			case 1: // a word written before, often nonzero
				if len(seen) > 0 {
					return seen[rng.Intn(len(seen))]
				}
			case 2: // anywhere in the address space
				return rng.Uint64() >> uint(rng.Intn(64))
			}
			return uint64(rng.Intn(4 * pageWords))
		}
		value := func() int64 {
			if rng.Intn(5) < 3 {
				return 0
			}
			return rng.Int63n(1<<20) - 1<<19
		}
		write := func(a uint64, v, d int64) {
			ref[a] = v
			seen = append(seen, a)
			if v != 0 {
				touched[a/pageWords] = true
			}
			writes++
			if d == 0 {
				zeros++
			}
		}
		for op := 0; op < 4000; op++ {
			a := addr()
			switch rng.Intn(3) {
			case 0:
				v := value()
				s.StoreWord(a, v)
				write(a, v, v)
			case 1:
				d := value()
				if old := s.Add(a, d); old != ref[a] {
					t.Fatalf("seed %d op %d: Add(%#x) old %d, reference %d", seed, op, a, old, ref[a])
				}
				write(a, ref[a]+d, d)
			default:
				if got := s.Load(a); got != ref[a] {
					t.Fatalf("seed %d op %d: Load(%#x) = %d, reference %d", seed, op, a, got, ref[a])
				}
			}
		}
		for a, v := range ref {
			if got := s.Load(a); got != v {
				t.Fatalf("seed %d: final Load(%#x) = %d, reference %d", seed, a, got, v)
			}
		}
		if 2*zeros < writes {
			t.Fatalf("seed %d: %d of %d writes were zero, want at least half", seed, zeros, writes)
		}
		if s.Footprint() != len(touched) {
			t.Fatalf("seed %d: %d pages were written a nonzero word, footprint %d", seed, len(touched), s.Footprint())
		}
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	s := NewStore()
	f := func(addr uint64, v int64) bool {
		addr %= 1 << 33
		s.StoreWord(addr, v)
		return s.Load(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

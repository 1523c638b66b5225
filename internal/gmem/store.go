// Package gmem models Cedar's globally shared memory: 32 double-word
// interleaved modules reached through the forward network, each with a
// pipelined access path and a synchronization processor that executes
// indivisible Test-And-Set and Cedar Test-And-Operate instructions
// [ZhYe87] at the memory, avoiding multi-transit lock cycles over the
// multistage network. Its data lives in a Store, which holds only the
// pages a run has written a nonzero word to.
package gmem

// pageWords is a Store page: 512 words, 4 KB.
const pageWords = 1 << 9

// Store is a sparse 64-bit word-addressed memory. It backs both global and
// cluster memories; addresses are 8-byte word indices. It costs the words a
// run writes: a page appears on the first nonzero store into it, and the
// page map on the first nonzero store of all. A zero store into an absent
// page does nothing, since an absent page reads zero (DESIGN.md, "Zero
// means empty"); a zero store into a present page overwrites the word. The
// zero value is ready to use and reads of untouched words return zero.
type Store struct {
	pages map[uint64]*[pageWords]int64
}

// NewStore returns an empty store.
func NewStore() *Store { return new(Store) }

// Load returns the word at addr.
func (s *Store) Load(addr uint64) int64 {
	pg := s.pages[addr/pageWords] // a nil map reads as absent
	if pg == nil {
		return 0
	}
	return pg[addr%pageWords]
}

// StoreWord writes v at addr.
func (s *Store) StoreWord(addr uint64, v int64) {
	key := addr / pageWords
	pg := s.pages[key]
	if pg == nil {
		if v == 0 {
			return // the absent page already reads 0
		}
		if s.pages == nil {
			s.pages = make(map[uint64]*[pageWords]int64) // first nonzero store: once per store per run
		}
		pg = new([pageWords]int64) // first nonzero store into the page: once per page per run
		s.pages[key] = pg
	}
	pg[addr%pageWords] = v
}

// Add atomically (in simulation time) adds delta and returns the old value.
func (s *Store) Add(addr uint64, delta int64) int64 {
	old := s.Load(addr)
	s.StoreWord(addr, old+delta)
	return old
}

// Footprint returns the number of allocated pages. Only tests call it:
// it is the one way TestStoreSparse can see that the store allocates on
// the first nonzero write to a page, not per address touched.
func (s *Store) Footprint() int { return len(s.pages) }

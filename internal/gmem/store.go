// Package gmem models Cedar's globally shared memory: 32 double-word
// interleaved modules reached through the forward network, each with a
// pipelined access path and a synchronization processor that executes
// indivisible Test-And-Set and Cedar Test-And-Operate instructions
// [ZhYe87] at the memory, avoiding multi-transit lock cycles over the
// multistage network.
package gmem

const chunkWords = 1 << 12

// Store is a sparse 64-bit word-addressed memory. It backs both global and
// cluster memories; addresses are 8-byte word indices. The zero value is
// ready to use and reads of untouched words return zero.
type Store struct {
	chunks map[uint64]*[chunkWords]int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{chunks: make(map[uint64]*[chunkWords]int64)}
}

// Load returns the word at addr.
func (s *Store) Load(addr uint64) int64 {
	c := s.chunks[addr/chunkWords]
	if c == nil {
		return 0
	}
	return c[addr%chunkWords]
}

// StoreWord writes v at addr.
func (s *Store) StoreWord(addr uint64, v int64) {
	key := addr / chunkWords
	c := s.chunks[key]
	if c == nil {
		c = new([chunkWords]int64) // first touch: once per chunk per run
		s.chunks[key] = c
	}
	c[addr%chunkWords] = v
}

// Add atomically (in simulation time) adds delta and returns the old value.
func (s *Store) Add(addr uint64, delta int64) int64 {
	old := s.Load(addr)
	s.StoreWord(addr, old+delta)
	return old
}

// Footprint returns the number of allocated chunks. Only tests call it:
// it is the one way TestStoreSparse can see that the store allocates on
// first write, not per address touched.
func (s *Store) Footprint() int { return len(s.chunks) }

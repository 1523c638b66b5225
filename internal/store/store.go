// Package store is the durable second level of the run cache: an
// on-disk, content-addressed, size-bounded blob store keyed by the fleet
// run-cache keys (sha256 over every input that affects a result). It
// implements fleet.SecondLevel, so attaching a Store to a fleet.Cache
// turns the in-process memo into a two-level lookup — memory, then disk,
// then simulate — and cedarserve's cached responses survive process
// restarts.
//
// Layout under the root directory — the directory is the index, and
// nothing is written beside the blobs that could fall out of step with
// them:
//
//	blobs/<sha>       one file per blob, named by sha256 of the KEY: the
//	                  payload's sha256 (64 hex digits, newline), then the
//	                  payload
//	tmp-*             in-flight writes (swept at Open)
//
// Durability contract:
//
//   - Writes are crash-safe: a blob is written to a temp file in the same
//     directory, fsynced and renamed into place, so a crash leaves the
//     old blob, the new blob or none, never a torn file. A leftover tmp-
//     file is swept at Open.
//   - Reads are verified: Get recomputes the payload's sha256 and checks
//     it against the blob's own header; any mismatch — truncation, bit
//     rot, manual editing, a file in an older layout — drops the blob and
//     reads as a miss, so a corrupt blob degrades to a re-simulation,
//     never a wrong answer or a crash.
//   - Eviction is LRU over a budget of payload bytes: Put evicts
//     least-recently-used entries until the store fits. Across a restart
//     recency is the blobs' modification order, ties by name: reads since
//     the last write are forgotten (operational state, never data).
//
// The store is single-writer: one process (the daemon) owns a directory.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cedar/internal/scope"
)

const (
	blobDir   = "blobs"
	tmpPrefix = "tmp-"
	// sumLen is a sha256 in hex: a blob's file name, and the checksum
	// that, with a newline, is its header.
	sumLen    = 2 * sha256.Size
	headerLen = sumLen + 1
)

// Store is a durable content-addressed blob store. Methods are safe for
// concurrent use; disk IO runs under the store lock (blobs are small —
// serialized experiment artifacts — and correctness beats throughput
// here).
type Store struct {
	mu      sync.Mutex
	dir     string
	max     int64            // byte budget; 0 = unbounded
	seq     int64            // monotonically increasing access stamp
	entries map[string]entry // by blob file name
	bytes   int64
	stats   Stats
}

// entry is what the store remembers about one blob file.
type entry struct {
	size int64 // payload bytes
	seq  int64 // last-access stamp for LRU
}

// Stats counts store activity since Open. Counters are monotonic for the
// life of the Store so scope can publish them.
type Stats struct {
	Gets      int64 // lookups presented
	Hits      int64 // answered from a verified blob
	Misses    int64 // unknown key
	Puts      int64 // blobs written
	Evictions int64 // entries removed to fit the size budget
	Corrupt   int64 // blobs that failed checksum verification
	Rejected  int64 // blobs larger than the whole budget, not stored
	Errors    int64 // IO failures (write, rename, remove)
}

// Open opens (creating if necessary) a store rooted at dir with the given
// byte budget (0 = unbounded). It removes tmp files and anything under
// blobs/ that cannot be a blob — a name that is no key hash, something
// other than a regular file, a file shorter than the header — takes every
// other file as an entry, oldest modification first (content is verified
// lazily at Get), and evicts down to the budget if a previous run was
// allowed a larger one.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("store: negative size budget %d", maxBytes)
	}
	if err := os.MkdirAll(filepath.Join(dir, blobDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, max: maxBytes, entries: map[string]entry{}}
	rootEnts, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range rootEnts {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return nil, fmt.Errorf("store: sweep tmp file: %w", err)
			}
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, blobDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	blobs := make([]os.FileInfo, 0, len(ents))
	for _, de := range ents {
		fi, err := de.Info()
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if isBlobName(fi.Name()) && fi.Mode().IsRegular() && fi.Size() >= headerLen {
			blobs = append(blobs, fi)
		} else if err := os.RemoveAll(s.blobPath(fi.Name())); err != nil {
			return nil, fmt.Errorf("store: sweep %s: %w", fi.Name(), err)
		}
	}
	// ReadDir sorts by name and this sort is stable: equal times stay in
	// name order.
	sort.SliceStable(blobs, func(i, j int) bool { return blobs[i].ModTime().Before(blobs[j].ModTime()) })
	for _, fi := range blobs {
		s.seq++
		s.entries[fi.Name()] = entry{size: fi.Size() - headerLen, seq: s.seq}
		s.bytes += fi.Size() - headerLen
	}
	s.evictToFit(0)
	return s, nil
}

// isBlobName reports whether name could have come from fileNameFor.
func isBlobName(name string) bool {
	_, err := hex.DecodeString(name)
	return err == nil && len(name) == sumLen && name == strings.ToLower(name)
}

// blobPath returns the on-disk path for a blob file name.
func (s *Store) blobPath(file string) string {
	return filepath.Join(s.dir, blobDir, file)
}

// fileNameFor derives the blob file name from the cache key. Keys carry
// a "kind:" prefix and hex tail; hashing the whole key gives a uniform,
// filesystem-safe name regardless of key shape.
func fileNameFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// header returns the blob header for a payload: its sha256 in hex and a
// newline.
func header(payload []byte) (h [headerLen]byte) {
	sum := sha256.Sum256(payload)
	hex.Encode(h[:sumLen], sum[:])
	h[sumLen] = '\n'
	return h
}

// Get returns the blob stored under key, verifying the payload against
// the checksum in its own header. A failed verification drops the blob
// and reads as a miss, so callers re-simulate instead of consuming a
// corrupt result. Implements fleet.SecondLevel.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	file := fileNameFor(key)
	e, ok := s.entries[file]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	b, err := os.ReadFile(s.blobPath(file))
	if err != nil || len(b) < headerLen || [headerLen]byte(b[:headerLen]) != header(b[headerLen:]) {
		s.stats.Corrupt++
		s.dropLocked(file)
		return nil, false
	}
	s.stats.Hits++
	s.seq++
	s.entries[file] = entry{size: e.size, seq: s.seq}
	return b[headerLen:], true
}

// Put stores blob under key, evicting least-recently-used entries to fit
// the size budget. A blob under an existing key replaces it (the key
// schema makes different bytes a simulator-version change, not a
// collision). Errors are counted, not returned — the store is a cache,
// and a failed write only costs a future re-simulation. Implements
// fleet.SecondLevel; the blob slice is not retained.
func (s *Store) Put(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := int64(len(blob))
	if s.max > 0 && size > s.max {
		s.stats.Rejected++
		return
	}
	file := fileNameFor(key)
	if err := s.writeBlob(file, blob); err != nil {
		s.stats.Errors++
		return
	}
	// A replaced blob was renamed over in place, so only the accounting
	// changes (by the zero entry when the key is new).
	s.bytes += size - s.entries[file].size
	s.seq++
	s.entries[file] = entry{size: size, seq: s.seq}
	s.stats.Puts++
	s.evictToFit(s.seq)
}

// writeBlob writes header and payload crash-safely: temp file in the
// store root, fsync, rename into blobs/.
func (s *Store) writeBlob(file string, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return err
	}
	h := header(payload)
	if _, err = tmp.Write(h[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.blobPath(file))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// evictToFit removes least-recently-used entries until the store fits
// its budget. keep, when non-zero, is a seq stamp that must survive (the
// entry just written). Called with mu held.
func (s *Store) evictToFit(keep int64) {
	if s.max <= 0 {
		return
	}
	for s.bytes > s.max {
		victim, found := "", false
		for file, e := range s.entries {
			if e.seq != keep && (!found || e.seq < s.entries[victim].seq) {
				victim, found = file, true
			}
		}
		if !found {
			return
		}
		s.stats.Evictions++
		s.dropLocked(victim)
	}
}

// dropLocked removes an entry and its blob file. Called with mu held.
func (s *Store) dropLocked(file string) {
	s.bytes -= s.entries[file].size
	delete(s.entries, file)
	if err := os.Remove(s.blobPath(file)); err != nil && !os.IsNotExist(err) {
		s.stats.Errors++
	}
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the total stored payload size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Publish registers the store's counters and gauges on h under the
// store.* namespace.
func (s *Store) Publish(h *scope.Hub) {
	h.Counter("store.gets", func() int64 { return s.Stats().Gets })
	h.Counter("store.hits", func() int64 { return s.Stats().Hits })
	h.Counter("store.misses", func() int64 { return s.Stats().Misses })
	h.Counter("store.puts", func() int64 { return s.Stats().Puts })
	h.Counter("store.evictions", func() int64 { return s.Stats().Evictions })
	h.Counter("store.corrupt", func() int64 { return s.Stats().Corrupt })
	h.Counter("store.errors", func() int64 { return s.Stats().Errors })
	h.Gauge("store.entries", func() int64 { return int64(s.Len()) })
	h.Gauge("store.bytes", func() int64 { return s.Bytes() })
}

package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTripDeterminism is the serving-correctness gate's disk half:
// a blob must come back byte-identical — through the live store and
// through a reopen (a daemon restart).
func TestRoundTripDeterminism(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	blob := []byte(`{"schema":1,"outcome":{"simcycles":123456,"mflops":9.25}}`)
	s.Put("serve:aabbcc", blob)
	got, ok := s.Get("serve:aabbcc")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("live round trip: ok=%v got=%q", ok, got)
	}

	re := mustOpen(t, dir, 0)
	got, ok = re.Get("serve:aabbcc")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("reopen round trip: ok=%v got=%q", ok, got)
	}
	if st := re.Stats(); st.Hits != 1 {
		t.Errorf("reopened store stats %+v, want 1 hit", st)
	}
}

func TestMissUnknownKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if _, ok := s.Get("serve:nothere"); ok {
		t.Fatal("unknown key reported a hit")
	}
	if st := s.Stats(); st.Gets != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 get, 1 miss", st)
	}
}

// TestLRUEviction: the budget evicts least-recently-used entries, and a
// Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	blob := bytes.Repeat([]byte("x"), 100)
	s := mustOpen(t, t.TempDir(), 250) // fits two 100-byte blobs, not three
	s.Put("k:a", blob)
	s.Put("k:b", blob)
	if _, ok := s.Get("k:a"); !ok { // a is now more recent than b
		t.Fatal("k:a missing before eviction")
	}
	s.Put("k:c", blob)
	if _, ok := s.Get("k:b"); ok {
		t.Error("k:b survived eviction despite being least recently used")
	}
	for _, k := range []string{"k:a", "k:c"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s was evicted, want it kept", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if s.Bytes() > 250 {
		t.Errorf("store holds %d bytes, budget 250", s.Bytes())
	}
}

// TestOversizeRejected: a blob that cannot fit the whole budget is not
// stored (storing then instantly evicting it would churn the disk).
func TestOversizeRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 10)
	s.Put("k:big", bytes.Repeat([]byte("y"), 11))
	if s.Len() != 0 {
		t.Fatal("oversize blob was stored")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("stats %+v, want 1 rejected", st)
	}
}

// TestCorruptBlobReadsAsMiss: a blob that fails checksum verification is
// dropped and reported as a miss — the two-level cache re-simulates, and
// the daemon never serves (or crashes on) corrupt bytes.
func TestCorruptBlobReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put("k:v", []byte("pristine-result-bytes"))

	// Flip bytes behind the store's back, keeping the size identical so
	// only the checksum can catch it.
	name := fileNameFor("k:v")
	if err := os.WriteFile(filepath.Join(dir, blobDir, name), []byte("corrupted-result-byte"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k:v"); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want 1 corrupt", st)
	}
	if s.Len() != 0 {
		t.Error("corrupt entry not dropped")
	}
	// And the drop is durable: a reopen does not resurrect it.
	if _, ok := mustOpen(t, dir, 0).Get("k:v"); ok {
		t.Error("corrupt entry resurrected by reopen")
	}

	// A directory in the layout before blobs carried their own checksum —
	// an index.json beside headerless blobs — is the same case: it opens,
	// each blob misses once as corrupt, and the re-Put serves.
	old := t.TempDir()
	body := bytes.Repeat([]byte("raw-body-no-header "), 8)
	if err := os.Mkdir(filepath.Join(old, blobDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, blobDir, name), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "index.json"), []byte(`{"schema":1,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, old, 0)
	if s.Len() != 1 {
		t.Fatalf("old-layout store opened with %d entries, want the 1 blob file", s.Len())
	}
	if got, ok := s.Get("k:v"); ok {
		t.Fatalf("headerless blob served as a hit: %q", got)
	}
	s.Put("k:v", body)
	if got, ok := s.Get("k:v"); !ok || !bytes.Equal(got, body) {
		t.Fatalf("after the re-Put: ok=%v got=%q", ok, got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 corrupt then 1 hit", st)
	}
}

// TestOpenSweepsCrashDebris: tmp files and whatever under blobs/ cannot be
// a blob — a name that is no key hash, a file shorter than the header —
// vanish at Open.
func TestOpenSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put("k:kept", []byte("kept"))
	s.Put("k:truncated", []byte("will-be-truncated"))

	// Simulate a crash: a half-written tmp file, a stray file under
	// blobs/, and a blob truncated to less than a header.
	if err := os.WriteFile(filepath.Join(dir, "tmp-12345"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobDir, "feedfacefeedface"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobDir, fileNameFor("k:truncated")), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, 0)
	if got, ok := re.Get("k:kept"); !ok || string(got) != "kept" {
		t.Fatalf("healthy entry lost in sweep: ok=%v got=%q", ok, got)
	}
	if _, ok := re.Get("k:truncated"); ok {
		t.Error("mis-sized entry survived the sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-12345")); !os.IsNotExist(err) {
		t.Error("tmp file not swept")
	}
	if _, err := os.Stat(filepath.Join(dir, blobDir, "feedfacefeedface")); !os.IsNotExist(err) {
		t.Error("orphan blob not swept")
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	if _, err := Open(t.TempDir(), -1); err == nil {
		t.Fatal("Open accepted a negative budget")
	}
}

// TestShrunkenBudgetEvictsAtOpen: reopening with a smaller budget trims
// the store immediately.
func TestShrunkenBudgetEvictsAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("k:%d", i), bytes.Repeat([]byte("z"), 100))
	}
	re := mustOpen(t, dir, 150)
	if re.Bytes() > 150 || re.Len() != 1 {
		t.Fatalf("reopened store holds %d bytes in %d entries, want ≤150 in 1", re.Bytes(), re.Len())
	}
}

// TestRePutRefreshesRecency: a re-Put protects the entry from the next
// eviction.
func TestRePutRefreshesRecency(t *testing.T) {
	blob := bytes.Repeat([]byte("w"), 100)
	s := mustOpen(t, t.TempDir(), 250)
	s.Put("k:a", blob)
	s.Put("k:b", blob)
	s.Put("k:a", blob) // refresh a
	s.Put("k:c", blob) // evicts b, not a
	if _, ok := s.Get("k:a"); !ok {
		t.Error("refreshed entry was evicted")
	}
	if _, ok := s.Get("k:b"); ok {
		t.Error("stale entry survived")
	}
}

// TestReplaceUnderSameKey: a new blob under an existing key replaces the
// old bytes and the accounting follows.
func TestReplaceUnderSameKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	s.Put("k:v", []byte("old"))
	s.Put("k:v", []byte("brand-new-longer"))
	got, ok := s.Get("k:v")
	if !ok || string(got) != "brand-new-longer" {
		t.Fatalf("got %q, %v", got, ok)
	}
	if s.Bytes() != int64(len("brand-new-longer")) || s.Len() != 1 {
		t.Fatalf("accounting: %d bytes in %d entries", s.Bytes(), s.Len())
	}
}

// TestBlobTreeDeterministic: two stores given the same Puts hold
// byte-identical directory trees — blobs/ and nothing beside it — so the
// determinism story extends to the store's own artifacts.
func TestBlobTreeDeterministic(t *testing.T) {
	tree := func() map[string]string {
		dir := t.TempDir()
		s := mustOpen(t, dir, 0)
		s.Put("k:b", []byte("bb"))
		s.Put("k:a", []byte("aa"))
		s.Put("k:b", []byte("replaced"))
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			files[rel] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	one, two := tree(), tree()
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("directory trees differ across identical stores:\n%q\n%q", one, two)
	}
	want := map[string]string{
		filepath.Join(blobDir, fileNameFor("k:a")): string(encoded([]byte("aa"))),
		filepath.Join(blobDir, fileNameFor("k:b")): string(encoded([]byte("replaced"))),
	}
	if !reflect.DeepEqual(one, want) {
		t.Fatalf("directory holds %q, want exactly %q", one, want)
	}
}

// encoded is the on-disk form of a payload: header, then payload.
func encoded(payload []byte) []byte {
	h := header(payload)
	return append(h[:], payload...)
}

// TestCrashAtEveryStep materialises each state a crash can leave behind a
// Put — the temp file partly written, the temp file complete but not yet
// renamed, the rename done — for a first Put and for a replacement. Open
// and Get must answer the old payload, the new one or a miss, never torn
// bytes, and no tmp- file may survive the Open.
func TestCrashAtEveryStep(t *testing.T) {
	oldBody, newBody := []byte("old-payload"), []byte("new-payload-of-another-length")
	full := encoded(newBody)
	for _, first := range []bool{true, false} {
		before := "" // what Get answers if the Put never lands; "" = miss
		if !first {
			before = string(oldBody)
		}
		for _, tc := range []struct {
			step    string
			tmp     []byte // left in the store root, nil = none
			renamed bool
			want    string
		}{
			{"tmp cut inside the header", full[:10], false, before},
			{"tmp cut inside the payload", full[:headerLen+4], false, before},
			{"tmp complete, not renamed", full, false, before},
			{"renamed", nil, true, string(newBody)},
		} {
			name := "replacement/" + tc.step
			if first {
				name = "first put/" + tc.step
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				s := mustOpen(t, dir, 0)
				if !first {
					s.Put("k:v", oldBody)
				}
				if tc.tmp != nil {
					if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"crashed"), tc.tmp, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if tc.renamed {
					if err := os.WriteFile(filepath.Join(dir, blobDir, fileNameFor("k:v")), full, 0o644); err != nil {
						t.Fatal(err)
					}
				}

				re := mustOpen(t, dir, 0)
				got, ok := re.Get("k:v")
				if ok != (tc.want != "") || string(got) != tc.want {
					t.Errorf("Get after the crash = %q, %v; want %q", got, ok, tc.want)
				}
				if st := re.Stats(); st.Corrupt != 0 {
					t.Errorf("stats %+v: a crash state read as corruption", st)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, de := range ents {
					if de.Name() != blobDir {
						t.Errorf("%s left in the store root after Open", de.Name())
					}
				}
			})
		}
	}
}

// TestOpenOrdersByModificationTime: across a restart recency is the
// blobs' modification order, ties broken by file name — a reopen under a
// smaller budget evicts the oldest first.
func TestOpenOrdersByModificationTime(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	keys := []string{"k:a", "k:b", "k:c"}
	for _, k := range keys {
		s.Put(k, bytes.Repeat([]byte("m"), 100))
	}
	// k:c, written last, becomes the oldest; k:a and k:b tie.
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for k, mtime := range map[string]time.Time{"k:a": at, "k:b": at, "k:c": at.Add(-time.Hour)} {
		if err := os.Chtimes(filepath.Join(dir, blobDir, fileNameFor(k)), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	tieLoser, tieWinner := "k:a", "k:b"
	if fileNameFor("k:b") < fileNameFor("k:a") {
		tieLoser, tieWinner = "k:b", "k:a"
	}

	held := func(s *Store) (out []string) {
		for _, k := range keys {
			if _, ok := s.Get(k); ok {
				out = append(out, k)
			}
		}
		return out
	}
	re := mustOpen(t, dir, 250)
	if got := held(re); len(got) != 2 || got[0] != "k:a" || got[1] != "k:b" {
		t.Fatalf("budget 250 kept %v, want k:a and k:b (k:c is oldest)", got)
	}
	re = mustOpen(t, dir, 150)
	if got := held(re); len(got) != 1 || got[0] != tieWinner {
		t.Fatalf("budget 150 kept %v, want %s (%s sorts first among equal times)", got, tieWinner, tieLoser)
	}
}

// TestPutCostIndependentOfEntryCount: what a Put allocates does not depend
// on how many entries the store holds — there is no per-store file to
// rewrite beside the blob. Objects must be equal; bytes (which is where a
// rewritten index showed: 7 KB against 352 KB, at 32 objects both) are
// read from raw MemStats and so only held to half again.
func TestPutCostIndependentOfEntryCount(t *testing.T) {
	cost := func(entries int) (objects float64, bytesPerPut uint64) {
		s := mustOpen(t, t.TempDir(), 0)
		blob := bytes.Repeat([]byte("p"), 1400)
		for i := 0; i < entries; i++ {
			s.Put(fmt.Sprintf("k:%d", i), blob)
		}
		// Replace one key with new bytes each time, so the map does not
		// grow under the measurement.
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, func() {
			blob[0]++
			s.Put("k:0", blob)
		})
		runtime.ReadMemStats(&after)
		if st := s.Stats(); st.Errors != 0 || s.Len() != entries {
			t.Fatalf("store at %d entries: %+v, %d held", entries, st, s.Len())
		}
		return objects, (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	smallObj, smallB := cost(8)
	largeObj, largeB := cost(512)
	if smallObj != largeObj || largeB > smallB+smallB/2 {
		t.Errorf("a Put allocates %v objects / %d B at 8 entries and %v / %d B at 512; want equal",
			smallObj, smallB, largeObj, largeB)
	}
}

// FuzzBlobOnDisk: whatever bytes sit under a blob's name, Open succeeds
// and Get either returns a payload whose sha256 is the one in the file's
// header or counts a miss — never a panic, never unverified bytes.
func FuzzBlobOnDisk(f *testing.F) {
	body := bytes.Repeat([]byte("raw-body-no-header "), 8)
	good := encoded(body)
	flipped := bytes.Clone(good) // one nibble of the checksum changed
	if flipped[0]++; flipped[0] == '9'+1 || flipped[0] == 'f'+1 {
		flipped[0] = '0'
	}
	f.Add([]byte{})
	f.Add(good[:headerLen])
	f.Add(flipped)
	f.Add(body)
	f.Add(good)
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, blobDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, blobDir, fileNameFor("k:v")), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		valid := false
		if len(file) >= headerLen {
			sum := sha256.Sum256(file[headerLen:])
			valid = string(file[:headerLen]) == hex.EncodeToString(sum[:])+"\n"
		}
		got, ok := s.Get("k:v")
		st := s.Stats()
		switch {
		case ok != valid:
			t.Fatalf("Get ok=%v for a file that is valid=%v: %q", ok, valid, file)
		case ok && (!bytes.Equal(got, file[headerLen:]) || st.Hits != 1):
			t.Fatalf("hit returned %q (stats %+v) for file %q", got, st, file)
		case !ok && (got != nil || st.Misses+st.Corrupt != 1 || s.Len() != 0):
			t.Fatalf("miss returned %q, stats %+v, %d entries held", got, st, s.Len())
		}
	})
}

// TestFileNameMatchesKeyHash pins the blob naming scheme the sweep and
// corrupt-blob tests rely on.
func TestFileNameMatchesKeyHash(t *testing.T) {
	sum := sha256.Sum256([]byte("k:v"))
	if fileNameFor("k:v") != hex.EncodeToString(sum[:]) {
		t.Fatal("blob file name is not the key hash")
	}
}

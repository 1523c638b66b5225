package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/manifest"
	"cedar/internal/store"
)

// TestIdentityManifest is the daemon's cross-commit pin:
// testdata/identity.sha256 is a "#" header, then one
// "<sha256>  body <request>" line per request, which the test posts in
// file order to one server over a fresh store, hashing each whole body,
// key included; then one "<sha256>  blobs" line over the store's blob
// names, one a line, sorted. The key is pinned because every stored
// blob is named by it: moving it orphans a store, so a move must be
// deliberate. manifest.Check names the lines that moved.
func TestIdentityManifest(t *testing.T) {
	const path = "testdata/identity.sha256"
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})
	var got strings.Builder
	for _, line := range strings.Split(string(file), "\n") {
		if strings.HasPrefix(line, "#") {
			got.WriteString(line + "\n")
			continue
		}
		_, name, ok := strings.Cut(line, "  ")
		req, isBody := strings.CutPrefix(name, "body ")
		if !ok || !isBody {
			continue
		}
		code, source, body := postRun(t, ts.URL, req)
		if code != http.StatusOK || source != "run" {
			t.Fatalf("%s: code %d, source %q, want 200 from a run: %s", req, code, source, body)
		}
		got.WriteString(manifest.Line(name, body))
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	var blobs strings.Builder
	for _, e := range entries {
		blobs.WriteString(e.Name() + "\n")
	}
	got.WriteString(manifest.Line("blobs", []byte(blobs.String())))
	if err := manifest.Check(path, got.String()); err != nil {
		t.Error(err)
	}
}

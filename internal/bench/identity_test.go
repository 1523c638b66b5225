package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// measuredKey starts an encoded artifact's measured section: everything
// before it (the header, a function of the campaign config, and the
// deterministic section) is what a committed baseline pins byte for byte.
var measuredKey = []byte("\n  \"measured\": {")

// TestCampaignsMatchTheCommittedBaselines is the campaigns' cross-commit
// pin: each committed campaign, run at its own jobs list, encodes up to
// its measured section exactly as the committed bench/BENCH_<area>.json
// does, and the smoke campaign on the stepped engine has the same
// deterministic section. A mismatch names the first point that moved and
// what moved in it. cedarbench diff keeps its thresholds for the
// measured section. It skips under -short and -race.
func TestCampaignsMatchTheCommittedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("committed campaigns in -short mode")
	}
	if raceEnabled {
		t.Skip("committed campaigns are too slow under the race detector")
	}
	root := filepath.Join("..", "..", "bench")
	for _, area := range []string{"smoke", "latency", "wide"} {
		c, err := Load(filepath.Join(root, "campaigns", area+".json"))
		if err != nil {
			t.Fatal(err)
		}
		baseline := filepath.Join(root, "BENCH_"+area+".json")
		art, err := Run(c, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkBaseline(t, baseline, area, art)
		if area != "smoke" {
			continue
		}
		stepped, err := Run(c, RunOptions{Jobs: 2, Stepped: true})
		if err != nil {
			t.Fatal(err)
		}
		// One pass is enough here: its header names jobs [2], so the
		// comparison reads its deterministic section under the header above.
		stepped.Header = art.Header
		checkBaseline(t, baseline, "stepped smoke", stepped)
	}
}

// checkBaseline compares art, the campaign run called name, encoded up
// to its measured section, with the committed artifact at path.
func checkBaseline(t *testing.T, path, name string, art *Artifact) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix, _, okWant := bytes.Cut(want, measuredKey)
	gotPrefix, _, okGot := bytes.Cut(got, measuredKey)
	if !okWant || !okGot {
		t.Fatalf("%s campaign or %s has no measured section", name, path)
	}
	if bytes.Equal(gotPrefix, wantPrefix) {
		return
	}
	old, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	where := firstDifference(old.Deterministic, art.Deterministic)
	if where == "" {
		where = "no point, but the header or the encoding"
	}
	t.Errorf("%s campaign differs from %s, first at %s; for a deliberate model change, re-take the baseline with cedarbench run", name, path, where)
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cedar/internal/bench"
)

// miniConfig is a one-point campaign small enough for CLI tests.
const miniConfig = `{
  "area": "mini",
  "machines": [{"name": "cedar"}],
  "workloads": [{"name": "vl", "kind": "vectorload", "n": 256}],
  "jobs": [1, 2]
}`

// write puts content in dir/name and returns the path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunModeProducesArtifact also pins when -out is looked at: its
// directory is created (a fresh clone has no artifacts/) or refused
// before the campaign runs, not after every point has simulated.
func TestRunModeProducesArtifact(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "c.json", miniConfig)
	var so, se bytes.Buffer
	if code := run([]string{"run", "-config", cfg, "-out", filepath.Join(cfg, "BENCH_mini.json")}, &so, &se); code != 2 {
		t.Errorf("-out under a regular file: exit %d, want 2 (stderr: %s)", code, se.String())
	}
	if strings.Contains(se.String(), "pass 1/") {
		t.Errorf("-out under a regular file was refused only after the campaign ran:\n%s", se.String())
	}
	out := filepath.Join(dir, "artifacts", "fresh", "BENCH_mini.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-config", cfg, "-out", out, "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	art, err := bench.ReadArtifact(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Header.Area != "mini" || len(art.Deterministic.Points) != 1 || !slices.Equal(art.Header.Jobs, []int{1, 2}) {
		t.Fatalf("unexpected artifact: %+v", art.Header)
	}
}

func TestRunModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "c.json", miniConfig)
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-config", cfg, "-out", filepath.Join(dir, "a.json"),
		"-q", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "c.json", miniConfig)
	badCfg := write(t, dir, "bad.json", `{"area":"x"}`)

	scrap := filepath.Join(dir, "scrap.json")
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // when set, what the refusal must name
	}{
		{name: "no mode", want: 2},
		{name: "unknown mode", args: []string{"frobnicate"}, want: 2},
		// The campaigns' one gate is the tier-1 pin of their baselines.
		{name: "diff mode retired", args: []string{"diff", cfg, cfg}, want: 2, stderr: `unknown mode "diff"`},
		{name: "run bad flag", args: []string{"run", "-no-such-flag"}, want: 2},
		// These carry a loadable config, so only the removed flag can refuse
		// them. (-out keeps a run that wrongly gets through from writing
		// beside the sources.) A campaign's jobs list is the one way to name
		// its passes.
		{name: "run jobs flag removed", args: []string{"run", "-config", cfg, "-out", scrap, "-jobs", "1"}, want: 2, stderr: "-jobs"},
		{name: "run stepped flag removed", args: []string{"run", "-config", cfg, "-out", scrap, "-stepped"}, want: 2, stderr: "-stepped"},
		{name: "run shards flag removed", args: []string{"run", "-shards", "2"}, want: 2},
		{name: "run clusters flag removed", args: []string{"run", "-config", cfg, "-out", scrap, "-clusters", "16"}, want: 2, stderr: "-clusters"},
		{name: "run missing config", args: []string{"run", "-config", filepath.Join(dir, "nope.json")}, want: 2},
		{name: "run without config", args: []string{"run", "-q"}, want: 2, stderr: "-config"},
		{name: "run invalid config", args: []string{"run", "-config", badCfg}, want: 2},
		{name: "run stray argument", args: []string{"run", "-config", cfg, "-out", scrap, "extra"}, want: 2, stderr: "unexpected arguments [extra]"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not name %q", tc.name, stderr.String(), tc.stderr)
		}
	}
}

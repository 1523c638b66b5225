package main

import (
	"bytes"
	"os"
	"path/filepath"
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
	if art.Header.Area != "mini" || len(art.Deterministic.Points) != 1 || len(art.Measured.Runs) != 2 {
		t.Fatalf("unexpected artifact: %+v", art.Header)
	}
	if art.Measured.Runs[0].WallNS == 0 {
		t.Error("CLI runs should record wall time")
	}
	if len(art.Measured.Points) != 1 {
		t.Error("CLI runs should record per-point wall times")
	}
}

// TestRunModeStepped: -stepped builds this run's machines on the
// reference engine without moving a deterministic byte.
func TestRunModeStepped(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "c.json", `{"area": "w", "machines": [{"name": "base"}, {"name": "own", "scaled": 8}],
		"workloads": [{"name": "vl", "kind": "vectorload", "n": 256}]}`)
	det := func(flags ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "a.json")
		var stdout, stderr bytes.Buffer
		args := append([]string{"run", "-config", cfg, "-out", out, "-q"}, flags...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %v: exit %d, stderr: %s", flags, code, stderr.String())
		}
		art, err := bench.ReadArtifact(out)
		if err != nil {
			t.Fatal(err)
		}
		b, err := art.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if stepped, asBuilt := det("-stepped"), det(); !bytes.Equal(stepped, asBuilt) {
		t.Error("-stepped changed the deterministic section")
	}
}

func TestRunModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := write(t, dir, "c.json", miniConfig)
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-config", cfg, "-out", filepath.Join(dir, "a.json"),
		"-q", "-jobs", "1", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
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

	// Build one good artifact, then a mutated copy with a 10% simcycle
	// regression and a plain copy for the clean diff.
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-config", cfg, "-out", base, "-q", "-jobs", "1"}, &out, &errb); code != 0 {
		t.Fatalf("setup run failed: %s", errb.String())
	}
	art, err := bench.ReadArtifact(base)
	if err != nil {
		t.Fatal(err)
	}
	art.Deterministic.Points[0].SimCycles = art.Deterministic.Points[0].SimCycles * 11 / 10
	worse := filepath.Join(dir, "worse.json")
	if err := art.Write(worse); err != nil {
		t.Fatal(err)
	}

	scrap := filepath.Join(dir, "scrap.json")
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // when set, what the refusal must name
	}{
		{name: "no mode", want: 2},
		{name: "unknown mode", args: []string{"frobnicate"}, want: 2},
		{name: "diff mode spelled as a flag", args: []string{"-diff", base, base}, want: 2, stderr: `"-diff"`},
		{name: "run bad flag", args: []string{"run", "-no-such-flag"}, want: 2},
		// Both carry a loadable config: without one the missing -config
		// alone is exit 2 and flag validation is never reached. (-out keeps
		// a run that wrongly gets through from writing beside the sources.)
		{name: "run bad jobs", args: []string{"run", "-config", cfg, "-out", scrap, "-jobs", "-3"}, want: 2, stderr: "-jobs"},
		{name: "run shards flag removed", args: []string{"run", "-shards", "2"}, want: 2},
		{name: "run clusters flag removed", args: []string{"run", "-config", cfg, "-out", scrap, "-clusters", "16"}, want: 2, stderr: "-clusters"},
		{name: "run missing config", args: []string{"run", "-config", filepath.Join(dir, "nope.json")}, want: 2},
		{name: "run without config", args: []string{"run", "-q"}, want: 2, stderr: "-config"},
		{name: "run invalid config", args: []string{"run", "-config", badCfg}, want: 2},
		{name: "run stray argument", args: []string{"run", "-config", cfg, "-out", scrap, "extra"}, want: 2, stderr: "unexpected arguments [extra]"},
		{name: "diff extra path", args: []string{"diff", base, base, base}, want: 2},
		{name: "diff missing args", args: []string{"diff", base}, want: 2},
		{name: "diff missing file", args: []string{"diff", base, filepath.Join(dir, "nope.json")}, want: 2},
		// The thresholds are constants: a flag that would widen one is
		// refused, not honoured, wherever it stands.
		{name: "diff threshold flag removed", args: []string{"diff", base, worse, "-threshold", "20%"}, want: 2, stderr: "-threshold"},
		{name: "diff alloc-threshold flag removed", args: []string{"diff", "-alloc-threshold", "20%", base, worse}, want: 2, stderr: "-alloc-threshold"},
		{name: "diff clean", args: []string{"diff", base, base}, want: 0},
		{name: "diff regression", args: []string{"diff", base, worse}, want: 1},
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

	// The regression diff names the offending point.
	var stdout, stderr bytes.Buffer
	run([]string{"diff", base, worse}, &stdout, &stderr)
	if !strings.Contains(stdout.String(), "REGRESSION") || !strings.Contains(stdout.String(), "simcycles") {
		t.Errorf("regression output: %q", stdout.String())
	}
}

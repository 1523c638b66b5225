package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cedar/internal/manifest"
)

// goldenArgs is the manifest invocation whose report, up to the degraded
// section it appends, is the committed kernel-report golden.
const goldenArgs = "-q -small -n 32 -codes QCD,TRACK -trace trace.json -metrics metrics.csv overheads t1 t2 membw net prefblock sched scaled degraded t3 t4 t5 t6 fig3"

// TestIdentityManifest is the CLI's cross-commit pin:
// testdata/identity.sha256 is a "#" header, then one
// "<sha256>  <stream> <args>" line per output of each invocation it
// lists, and is the only list of them. The test drives run in-process on
// each args (exit 0 required), writing -trace and -metrics files into a
// temporary directory, and recomputes the file: stdout, then the trace,
// then the metrics, each whole. manifest.Check names the lines that
// moved. The goldenArgs run's report must also start with
// internal/tables/testdata/report_kernels_n32.golden, byte for byte. It
// skips under -short and -race.
func TestIdentityManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("report generation is too slow under the race detector")
	}
	const path = "testdata/identity.sha256"
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	var invocations []string
	for _, line := range strings.Split(string(file), "\n") {
		if strings.HasPrefix(line, "#") {
			got.WriteString(line + "\n")
			continue
		}
		if _, name, ok := strings.Cut(line, "  "); ok {
			if _, args, _ := strings.Cut(name, " "); !slices.Contains(invocations, args) {
				invocations = append(invocations, args)
			}
		}
	}
	sawGolden := false
	for _, args := range invocations {
		streams := invoke(t, args)
		for _, s := range streams {
			got.WriteString(manifest.Line(s.name+" "+args, s.data))
		}
		if args == goldenArgs {
			sawGolden = true
			checkGoldenPrefix(t, streams[0].data)
		}
	}
	if !sawGolden {
		t.Errorf("%s lists no %q invocation, whose report the golden check reads", path, goldenArgs)
	}
	if err := manifest.Check(path, got.String()); err != nil {
		t.Error(err)
	}
}

// stream is one hashed output of an invocation.
type stream struct {
	name string
	data []byte
}

// invoke runs cedarsim on args, a space-separated argument list in which
// the values of -trace and -metrics are file names, and returns stdout,
// then the trace and the metrics files if args names them.
func invoke(t *testing.T, args string) []stream {
	t.Helper()
	argv := strings.Fields(args)
	dir := t.TempDir()
	files := map[string]string{}
	for i, a := range argv[:len(argv)-1] {
		if a == "-trace" || a == "-metrics" {
			argv[i+1] = filepath.Join(dir, argv[i+1])
			files[a[1:]] = argv[i+1]
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("cedarsim %s: exit %d, want 0 (stderr: %s)", args, code, stderr.String())
	}
	out := []stream{{"stdout", stdout.Bytes()}}
	for _, name := range []string{"trace", "metrics"} {
		if p, ok := files[name]; ok {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stream{name, b})
		}
	}
	return out
}

// checkGoldenPrefix: the kernel-level report goldenArgs writes, up to the
// degraded section, is the committed golden and the blank line before
// the next heading.
func checkGoldenPrefix(t *testing.T, report []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "tables", "testdata", "report_kernels_n32.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, found := bytes.Cut(report, []byte("## Degraded"))
	if !found {
		t.Fatalf("cedarsim %s wrote no degraded section", goldenArgs)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Errorf("cedarsim %s, up to its degraded section, wrote:\n%s\nwant the golden and a blank line:\n%s", goldenArgs, got, want)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rejection is one invalid invocation: run must exit want and name
// stderrs on stderr, before simulating anything.
type rejection struct {
	name    string
	args    []string
	want    int
	stderrs string
}

func checkRejections(t *testing.T, cases []rejection) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderrs) {
				t.Fatalf("run(%v) stderr %q does not mention %q", tc.args, stderr.String(), tc.stderrs)
			}
		})
	}
}

// writePlan writes a fault plan into dir and returns its path.
func writePlan(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRejectsBadInvocations(t *testing.T) {
	dir := t.TempDir()
	malformed := writePlan(t, dir, "bad.json", `{"seed": 1, "faults": [{"kind": "warp-core"}]}`)
	checkRejections(t, []rejection{
		{"zero jobs", []string{"-jobs", "0", "overheads"}, 2, "-jobs"},
		{"negative jobs", []string{"overheads", "-jobs=-2"}, 2, "-jobs"},
		{"zero n", []string{"-n", "0", "t1"}, 2, "-n must be at least 1, got 0"},
		{"negative n", []string{"t1", "-n=-8"}, 2, "-n must be at least 1, got -8"},
		{"missing plan file", []string{"-faults", filepath.Join(dir, "nope.json")}, 2, "nope.json"},
		{"malformed plan", []string{"-faults", malformed}, 2, "warp-core"},
		{"unknown flag", []string{"-bogus"}, 2, "bogus"},
		{"unknown flag after a name", []string{"t1", "-bogus"}, 2, "bogus"},
		{"unknown ablation", []string{"t1", "pref"}, 2, `no experiment named "pref" (valid: overheads, t1, t2,`},
		{"unknown table", []string{"t7"}, 2, `no experiment named "t7" (valid: overheads, t1, t2,`},
		{"all is not a name", []string{"all"}, 2, `"all"`},
	})
}

// TestRunRejectsBadEvaluationInvocations names no entry, so the run is
// the whole evaluation: the invalid -jobs, -n, -faults and -codes values
// must stop it before anything is simulated, and a stray word is an entry
// name that must match one.
func TestRunRejectsBadEvaluationInvocations(t *testing.T) {
	dir := t.TempDir()
	malformed := writePlan(t, dir, "bad.json", `{"faults": [{"kind": "stage-jam", "rate": 40}]}`)
	checkRejections(t, []rejection{
		{"zero jobs", []string{"-jobs", "0"}, 2, "-jobs"},
		{"negative jobs", []string{"-jobs=-2"}, 2, "-jobs"},
		{"zero n", []string{"-n", "0"}, 2, "-n must be at least 1, got 0"},
		{"negative n", []string{"-n=-8"}, 2, "-n must be at least 1, got -8"},
		{"missing plan file", []string{"-faults", filepath.Join(dir, "nope.json")}, 2, "nope.json"},
		{"malformed plan", []string{"-faults", malformed}, 2, "rate"},
		{"unknown flag", []string{"-bogus"}, 2, "bogus"},
		{"no matching codes", []string{"-codes", "NOSUCH"}, 2, "NOSUCH"},
		{"one typo among the codes", []string{"-codes", "QCD,TRAK"}, 2, `"TRAK" (valid: ADM, ARC2D`},
		{"stray argument after the flags", []string{"-n", "512", "extra"}, 2, `no experiment named "extra" (valid: overheads,`},
		{"stray argument before the flags", []string{"extra", "-n", "512"}, 2, `no experiment named "extra" (valid: overheads,`},
	})
}

// TestRunRejectsBadSuiteInvocations selects the Perfect results, t3 and
// t4: the invalid -jobs, -faults and -codes values must stop the run
// before the suite starts.
func TestRunRejectsBadSuiteInvocations(t *testing.T) {
	dir := t.TempDir()
	stall := writePlan(t, dir, "stall.json", `{"seed": 1, "faults": [{"kind": "bank-stall", "module": 0, "rate": 0.5}]}`)
	checkRejections(t, []rejection{
		{"zero jobs", []string{"-jobs", "0", "t3", "t4"}, 2, "-jobs"},
		{"negative jobs", []string{"t3", "t4", "-jobs=-7"}, 2, "-jobs"},
		{"missing plan file", []string{"-faults", filepath.Join(dir, "nope.json"), "t3", "t4"}, 2, "nope.json"},
		{"stall without extra", []string{"-faults", stall, "t3", "t4"}, 2, "extra"},
		{"unknown flag", []string{"t3", "t4", "-bogus"}, 2, "bogus"},
		{"no matching codes", []string{"-codes", "NOSUCH", "t3", "t4"}, 2, "NOSUCH"},
		{"one typo among the codes", []string{"t3", "t4", "-codes", "QCD,TRAK"}, 2, `"TRAK" (valid: ADM, ARC2D`},
	})
}

// TestRunRejectsBadMethodologyInvocations selects the methodology, t5, t6
// and fig3: the invalid -jobs and -faults values must stop the run before
// the suite starts.
func TestRunRejectsBadMethodologyInvocations(t *testing.T) {
	dir := t.TempDir()
	unparsable := writePlan(t, dir, "garbage.json", `not json`)
	checkRejections(t, []rejection{
		{"zero jobs", []string{"-jobs", "0", "t5", "t6", "fig3"}, 2, "-jobs"},
		{"negative jobs", []string{"t5", "t6", "fig3", "-jobs=-1"}, 2, "-jobs"},
		{"missing plan file", []string{"-faults", filepath.Join(dir, "nope.json"), "t5", "t6", "fig3"}, 2, "nope.json"},
		{"unparsable plan", []string{"-faults", unparsable, "t5", "t6", "fig3"}, 2, "garbage.json"},
		{"unknown flag", []string{"t5", "-bogus", "t6", "fig3"}, 2, "bogus"},
	})
}

// TestJSONDoesNotDependOnJobs: -json stdout, each document's header
// included, is the same bytes at -jobs 1 and -jobs 2, as the flag's help
// text says.
func TestJSONDoesNotDependOnJobs(t *testing.T) {
	var outs [2]bytes.Buffer
	for i, jobs := range []string{"1", "2"} {
		var stderr bytes.Buffer
		if code := run([]string{"-q", "-small", "-json", "-jobs", jobs, "overheads"}, &outs[i], &stderr); code != 0 {
			t.Fatalf("-jobs %s: exit %d (stderr: %s)", jobs, code, stderr.String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("-json stdout differs between -jobs 1 and -jobs 2:\n%s\n---\n%s", outs[0].Bytes(), outs[1].Bytes())
	}
}

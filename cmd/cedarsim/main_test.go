package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/fault"
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

// runOK runs cedarsim on args, which must exit 0, and returns its stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0 (stderr: %s)", args, code, stderr.String())
	}
	return stdout.Bytes()
}

// TestSetupJobsValidation: an explicit -jobs below 1 is rejected (the
// TestRunRejects* tests hold those rows), but only after the names are
// resolved, so a bad name is what a run with both reports. Unset, -jobs
// means GOMAXPROCS workers, and an explicit count gives the same output.
func TestSetupJobsValidation(t *testing.T) {
	checkRejections(t, []rejection{
		{"zero jobs and a bad name", []string{"-jobs", "0", "t7"}, 2, `no experiment named "t7"`},
	})
	unset := runOK(t, "-q", "-small", "overheads")
	if set := runOK(t, "-q", "-small", "-jobs", "3", "overheads"); !bytes.Equal(set, unset) {
		t.Errorf("-jobs 3 report differs from the default's:\n%s\n---\n%s", set, unset)
	}
}

// firstHeader runs cedarsim -json on args and returns the header of its
// first document.
func firstHeader(t *testing.T, args ...string) header {
	t.Helper()
	var doc struct{ Header header }
	if err := json.NewDecoder(bytes.NewReader(runOK(t, append([]string{"-q", "-json"}, args...)...))).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Header
}

// TestSetupFaultPlans: -faults demo installs the built-in plan, a plan
// file is loaded as written, and the plan belongs to its run: a later run
// without -faults is healthy. The -json header names the plan a run used.
func TestSetupFaultPlans(t *testing.T) {
	if h := firstHeader(t, "-n", "32", "-faults", "demo", "overheads"); h != newHeader(fault.DemoPlan()) {
		t.Errorf("-faults demo header = %+v, want the demo plan's", h)
	}
	good := writePlan(t, t.TempDir(), "plan.json", `{"seed": 7, "faults": [{"kind": "bank-dead", "module": 2}]}`)
	plan, err := fault.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if h := firstHeader(t, "-n", "32", "-faults", good, "overheads"); h != newHeader(plan) || h.FaultSeed != 7 {
		t.Errorf("-faults %s header = %+v, want %+v", good, h, newHeader(plan))
	}
	if h := firstHeader(t, "overheads"); h != newHeader(nil) {
		t.Errorf("run without -faults after faulted runs: header %+v, want healthy", h)
	}
}

// TestSetupFaultErrors: a plan file that fails validation is a bad
// invocation (missing and malformed files are TestRunRejects* rows).
func TestSetupFaultErrors(t *testing.T) {
	bad := writePlan(t, t.TempDir(), "bad.json", `{"seed": 1, "faults": [{"kind": "bank-dead", "module": -1}]}`)
	checkRejections(t, []rejection{
		{"module below 0", []string{"-faults", bad, "overheads"}, 2, "needs an explicit module ≥ 0"},
	})
}

// TestSetupShardsAndClusters: -shards left with the intra-run parallel
// engine, so the flag package rejects it, a negative width is rejected,
// and a valid width too narrow for a selected point (membw streams from
// up to 32 CEs; t1 widens its one-cluster base to two and four clusters,
// which one cluster's 8-port network cannot wire) by tables.Fit, alone or
// in the whole evaluation, as is a size past what a kernel can run. A
// valid width's output is pinned by the identity manifest's -clusters 16
// line.
func TestSetupShardsAndClusters(t *testing.T) {
	const narrow = "membw/32ce/stride1 needs 32 CEs; the machine has 16 (-clusters 2)"
	checkRejections(t, []rejection{
		{"shards", []string{"-shards", "2", "overheads"}, 2, "flag provided but not defined: -shards"},
		{"negative clusters", []string{"-clusters", "-2", "overheads"}, 2, "-clusters -2: params: clusters must be ≥ 1, got -2"},
		{"membw on two clusters", []string{"-q", "-small", "-clusters", "2", "membw"}, 2, narrow},
		{"evaluation on two clusters", []string{"-q", "-clusters", "2"}, 2, narrow},
		{"t1 on one cluster", []string{"-q", "-small", "-n", "32", "-clusters", "1", "t1"}, 2,
			"cedarsim: t1/nopref/2cl params: NetPorts (8) smaller than CE count (16) (-clusters 1)\n"},
		{"t1 past the CE's element tags", []string{"-n", "70000", "t1"}, 2,
			"cedarsim: t1/nopref/1cl n 70000 exceeds the 65535 elements of an unprefetched vector stream\n"},
	})
}

// TestSessionArtifacts: a run owes what its flags asked for — the trace
// and metrics files, which add the attribution section to the report, and
// the heap profile — and nothing when nothing was asked.
func TestSessionArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace, metrics, mem := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv"), filepath.Join(dir, "mem.pb.gz")
	report := runOK(t, "-q", "-small", "-trace", trace, "-metrics", metrics, "-memprofile", mem, "overheads")
	if !bytes.Contains(report, []byte("## Cycle attribution")) {
		t.Error("-trace/-metrics report has no cycle-attribution section")
	}
	for _, path := range []string{trace, metrics, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty after the run (err %v)", path, err)
		}
	}
	if report := runOK(t, "-q", "-small", "overheads"); bytes.Contains(report, []byte("## Cycle attribution")) {
		t.Error("unobserved report has a cycle-attribution section")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestUnknownCheckExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-checks", "nosuch", "./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown check "nosuch"`) || !strings.Contains(msg, "hotalloc") {
		t.Fatalf("stderr %q should name the bad check and list the valid ones", msg)
	}
}

// chdir switches into dir for the duration of the test; run() anchors on
// the module root above the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJSONDeterministic vets the vetdemo golden module twice: the runs
// must agree byte for byte, and the one planted finding (a cycle-count
// field declared int) must survive with a module-root-relative path. The
// module's hotalloc waiver is live on this whole-module run, so it is not
// reported as stale.
func TestJSONDeterministic(t *testing.T) {
	chdir(t, "testdata/mod")
	runOnce := func() (int, string) {
		var out, errb bytes.Buffer
		code := run([]string{"-json", "./..."}, &out, &errb)
		return code, out.String()
	}
	c1, o1 := runOnce()
	c2, o2 := runOnce()
	if c1 != 1 || c2 != 1 {
		t.Fatalf("exit = %d/%d, want 1 (the planted finding)", c1, c2)
	}
	if o1 != o2 {
		t.Fatalf("json output differs between runs:\n%s---\n%s", o1, o2)
	}
	var arr []jsonDiagnostic
	if err := json.Unmarshal([]byte(o1), &arr); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, o1)
	}
	if len(arr) != 1 || arr[0].Check != "cycleint" || arr[0].File != "a/a.go" {
		t.Fatalf("findings = %+v, want one cycleint finding at a/a.go", arr)
	}
}

// TestSinglePackageRunKeepsModuleWaivers vets vetdemo's cache package
// alone. The Tick root that makes its waived allocation per-cycle code
// lives in internal/sim, which the pattern did not load, so hotalloc
// finds nothing for the //lint:allow to suppress — and that is no
// evidence the waiver is stale: only a whole-module load judges a
// whole-module check's directives.
func TestSinglePackageRunKeepsModuleWaivers(t *testing.T) {
	chdir(t, "testdata/mod")
	var out, errb bytes.Buffer
	if code := run([]string{"./internal/cache"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}

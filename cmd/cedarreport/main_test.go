package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	malformed := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(malformed, []byte(`{"faults": [{"kind": "stage-jam", "rate": 40}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		want    int
		stderrs string
	}{
		{"zero jobs", []string{"-jobs", "0"}, 2, "-jobs"},
		{"negative jobs", []string{"-jobs=-2"}, 2, "-jobs"},
		{"zero n", []string{"-n", "0"}, 2, "-n must be at least 1, got 0"},
		{"negative n", []string{"-n=-8"}, 2, "-n must be at least 1, got -8"},
		{"missing plan file", []string{"-faults", filepath.Join(t.TempDir(), "nope.json")}, 2, "nope.json"},
		{"malformed plan", []string{"-faults", malformed}, 2, "rate"},
		{"unknown flag", []string{"-bogus"}, 2, "bogus"},
		{"no matching codes", []string{"-codes", "NOSUCH"}, 2, "NOSUCH"},
		{"one typo among the codes", []string{"-codes", "QCD,TRAK"}, 2, `"TRAK" (valid: ADM, ARC2D`},
		{"stray argument after the flags", []string{"-n", "512", "extra"}, 2, "unexpected arguments [extra]"},
		{"stray argument before the flags", []string{"extra", "-n", "512"}, 2, "unexpected arguments [extra]"},
	}
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

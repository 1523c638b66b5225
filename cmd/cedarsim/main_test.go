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
	if err := os.WriteFile(malformed, []byte(`{"seed": 1, "faults": [{"kind": "warp-core"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		want    int
		stderrs string
	}{
		{"zero jobs", []string{"-jobs", "0", "-overheads"}, 2, "-jobs"},
		{"negative jobs", []string{"-jobs=-2", "-overheads"}, 2, "-jobs"},
		{"missing plan file", []string{"-faults", filepath.Join(t.TempDir(), "nope.json")}, 2, "nope.json"},
		{"malformed plan", []string{"-faults", malformed}, 2, "warp-core"},
		{"unknown flag", []string{"-bogus"}, 2, "bogus"},
		{"nothing selected", []string{}, 2, "Usage"},
		{"unknown ablation", []string{"-table", "1", "-ablation", "bogus"}, 2, `unknown -ablation "bogus" (accepted: net, pref, sched)`},
		{"unknown table", []string{"-table", "7"}, 2, "unknown -table 7 (accepted: 1, 2)"},
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

package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTestModule lays files (slash-relative path -> source) under a temp
// dir, then loads every package of the resulting module with a fresh
// Loader.
func writeTestModule(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestLoaderLoadsWholeModule(t *testing.T) {
	pkgs := writeTestModule(t, map[string]string{
		"go.mod":      "module tmod\n\ngo 1.22\n",
		"a/a.go":      "package a\n\n// V is exported.\nconst V = 1\n",
		"b/b.go":      "package b\n\nimport \"tmod/a\"\n\n// W doubles a.V.\nconst W = 2 * a.V\n",
		"b/b_test.go": "package b\n\nimport \"testing\"\n\nfunc TestW(t *testing.T) { _ = W }\n",
	})
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Path != "tmod/a" || pkgs[1].Path != "tmod/b" {
		t.Fatalf("paths = %s, %s; want tmod/a, tmod/b", pkgs[0].Path, pkgs[1].Path)
	}
	// In-package test files ride along with the analysis package.
	if n := len(pkgs[1].Files); n != 2 {
		t.Errorf("tmod/b holds %d files, want 2 (b.go + b_test.go)", n)
	}
}

package lint

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "cedar" {
		t.Fatalf("module = %q, want cedar", l.Module)
	}
}

// TestParseDirRespectsBuildConstraints guards the loader against the
// mutually-exclusive-twin pattern (a "//go:build race" file redeclaring
// what its "!race" twin declares): without constraint evaluation both
// parse and the package fails to typecheck.
func TestParseDirRespectsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module constrained\n")
	write("on.go", "//go:build race\n\npackage p\n\nconst flag = true\n")
	write("off.go", "//go:build !race\n\npackage p\n\nconst flag = false\n")
	write("other_goos.go", "//go:build plan9\n\npackage p\n\nconst flag = 3\n")
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := l.parseDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("got %d files, want just the !race twin", len(files))
	}
	if got := l.Fset.Position(files[0].Pos()).Filename; filepath.Base(got) != "off.go" {
		t.Errorf("loaded %s, want off.go", got)
	}
}

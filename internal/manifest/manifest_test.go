package manifest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckNamesEveryLineThatDiffers: a moved, an added and a gone line
// are each named, header lines are not lines, and the replacement file
// is printed whole.
func TestCheckNamesEveryLineThatDiffers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.sha256")
	committed := "# header\n" + Line("a", []byte("1")) + Line("b", []byte("2")) + Line("c", []byte("3"))
	if err := os.WriteFile(path, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Check(path, committed); err != nil {
		t.Fatalf("identical manifest: %v", err)
	}
	got := "# header\n" + Line("a", []byte("1")) + Line("b", []byte("two")) + Line("d", []byte("4"))
	err := Check(path, got)
	if err == nil {
		t.Fatal("a differing manifest passed")
	}
	for _, want := range []string{"moved: b\n", "gone:  c\n", "added: d\n", "becomes:\n" + got} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), ": a\n") || strings.Contains(err.Error(), "header\n\t") {
		t.Errorf("error %q names a line that did not move", err)
	}
	if err := Check(path, strings.Replace(committed, "# header", "# other", 1)); err == nil || !strings.Contains(err.Error(), "no line, but") {
		t.Errorf("a header-only change: %v", err)
	}
}

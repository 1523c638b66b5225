// Package manifest is the one comparison behind the repository's
// committed identity files. A manifest is a text file of optional "#"
// header lines, then one "<sha256>  <name>" line per pinned output; a
// test recomputes the file from what it ran and hands both to Check. The
// tests of internal/tables (the model), cmd/cedarsim (the CLI) and
// internal/serve (the daemon) share it. There is no update switch: a
// deliberate change copies the replacement file Check prints over the
// committed one and says why.
package manifest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
)

// Line is one manifest line: data's sha256 in hex, two spaces, name.
func Line(name string, data []byte) string {
	return fmt.Sprintf("%x  %s\n", sha256.Sum256(data), name)
}

// Check compares got, the manifest a test computed, with the committed
// file at path. On a difference the error names every line that moved
// (same name, other hash), was added (only in got) or went missing (only
// in the file), then prints got whole: the replacement file.
func Check(path, got string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if got == string(want) {
		return nil
	}
	gotLines, wantLines := parse(got), parse(string(want))
	var diffs []string
	for _, l := range wantLines {
		switch g, ok := find(gotLines, l.name); {
		case !ok:
			diffs = append(diffs, "gone:  "+l.name)
		case g.sum != l.sum:
			diffs = append(diffs, "moved: "+l.name)
		}
	}
	for _, l := range gotLines {
		if _, ok := find(wantLines, l.name); !ok {
			diffs = append(diffs, "added: "+l.name)
		}
	}
	if len(diffs) == 0 {
		diffs = append(diffs, "no line, but the file's order, header or layout")
	}
	return fmt.Errorf("%s differs from what the test computed:\n\t%s\nFor a deliberate change, %s becomes:\n%s",
		path, strings.Join(diffs, "\n\t"), path, got)
}

type line struct{ sum, name string }

// parse reads a manifest's "<sha256>  <name>" lines, in file order.
func parse(file string) []line {
	var out []line
	for _, l := range strings.Split(file, "\n") {
		if sum, name, ok := strings.Cut(l, "  "); ok && !strings.HasPrefix(l, "#") {
			out = append(out, line{sum, name})
		}
	}
	return out
}

func find(lines []line, name string) (line, bool) {
	for _, l := range lines {
		if l.name == name {
			return l, true
		}
	}
	return line{}, false
}

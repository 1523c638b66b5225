// The docs' citations are checked against the tree: a test named in a
// doc, a section cited by its title and a bench/history file cited by its
// path must each exist, so renaming or folding one fails here instead of
// leaving a stale pointer behind.
package cedar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docLine is one line of cited text and the line number it has in its file.
type docLine struct {
	n    int
	text string
}

// citationIndex is what a citation may name: the module's top-level
// test functions, every identifier a declaration names, each cited
// doc's headings and bold paragraph leads, and the files that exist.
type citationIndex struct {
	tests    []string            // sorted
	declared map[string]bool     // funcs, methods, types, fields, vars, consts
	sections map[string][]string // doc name → its headings and bold leads
	exists   func(path string) bool
}

var (
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)(?:[A-Z0-9_][A-Za-z0-9_]*)?\b`)
	sectionRE  = regexp.MustCompile(`\b(README|DESIGN|EXPERIMENTS)\.md(?:'s)?,?(?:\s+|\s*\()"([^"]+)"`)
	moreRE     = regexp.MustCompile(`^(?:,|,?\s+and|,?\s+or)\s+"([^"]+)"`)
	historyRE  = regexp.MustCompile(`bench/history/PR[0-9]+/[A-Za-z0-9_.\-]*[A-Za-z0-9_\-]`)
	headingRE  = regexp.MustCompile(`^#{1,6}\s+(.+)$`)
	boldLeadRE = regexp.MustCompile(`^\*\*(.+?)\*\*`)
	spaceRE    = regexp.MustCompile(`\s+`)
)

// stale returns one "file:line: citation" per citation in lines that names
// nothing in ix. A test name passes when it is a prefix of a top-level
// test function (so -run patterns and Foo* pass) or a declared
// identifier (network.TestOp); a section passes when a heading or bold
// lead of its doc starts with it; a history path passes when it exists.
func (ix citationIndex) stale(file string, lines []docLine) []string {
	var b strings.Builder
	starts := make([]int, len(lines))
	for i, l := range lines {
		starts[i] = b.Len()
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	text := b.String()
	var out []string
	miss := func(off int, cite string) {
		i := sort.SearchInts(starts, off+1) - 1
		out = append(out, file+":"+strconv.Itoa(lines[i].n)+": "+cite)
	}
	for _, m := range testNameRE.FindAllStringIndex(text, -1) {
		if name := text[m[0]:m[1]]; !ix.isTest(name) {
			miss(m[0], name)
		}
	}
	for _, m := range sectionRE.FindAllStringSubmatchIndex(text, -1) {
		doc := text[m[2]:m[3]] + ".md"
		titles := []string{text[m[4]:m[5]]}
		for rest := m[1]; ; {
			more := moreRE.FindStringSubmatchIndex(text[rest:])
			if more == nil {
				break
			}
			titles = append(titles, text[rest+more[2]:rest+more[3]])
			rest += more[1]
		}
		for _, title := range titles {
			if !ix.isSection(doc, title) {
				miss(m[0], doc+` "`+normalize(title)+`"`)
			}
		}
	}
	for _, m := range historyRE.FindAllStringIndex(text, -1) {
		if p := text[m[0]:m[1]]; !ix.exists(p) {
			miss(m[0], p)
		}
	}
	return out
}

func (ix citationIndex) isTest(name string) bool {
	i := sort.SearchStrings(ix.tests, name)
	return ix.declared[name] || i < len(ix.tests) && strings.HasPrefix(ix.tests[i], name)
}

func (ix citationIndex) isSection(doc, title string) bool {
	title = normalize(title)
	for _, s := range ix.sections[doc] {
		if s == title || strings.HasPrefix(s, title) && !isWordByte(s[len(title)]) {
			return true
		}
	}
	return false
}

func normalize(s string) string { return strings.TrimSpace(spaceRE.ReplaceAllString(s, " ")) }

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// markdownSections lists a markdown file's headings and the bold leads
// that open a paragraph (**Claims.** in DESIGN.md), outside code fences.
func markdownSections(src string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if m := headingRE.FindStringSubmatch(line); m != nil {
			out = append(out, normalize(m[1]))
		} else if m := boldLeadRE.FindStringSubmatch(line); m != nil {
			out = append(out, normalize(strings.TrimRight(m[1], ".:")))
		}
	}
	return out
}

// fileLines splits a doc into docLines; for a shell or YAML file it drops
// each comment's leading '#', so a citation wrapped across comment lines
// reads as one.
func fileLines(path, src string) []docLine {
	strip := strings.HasSuffix(path, ".sh") || strings.HasSuffix(path, ".yml")
	var out []docLine
	for i, line := range strings.Split(src, "\n") {
		if strip {
			if t := strings.TrimLeft(line, " \t"); strings.HasPrefix(t, "#") {
				line = strings.TrimPrefix(t, "#")
			}
		}
		out = append(out, docLine{i + 1, line})
	}
	return out
}

// commentLines returns every comment of a parsed Go file as docLines.
func commentLines(fset *token.FileSet, f *ast.File) []docLine {
	var out []docLine
	for _, g := range f.Comments {
		for _, c := range g.List {
			n := fset.Position(c.Slash).Line
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
			for i, line := range strings.Split(text, "\n") {
				out = append(out, docLine{n + i, line})
			}
		}
	}
	return out
}

// declaredNames adds to names every identifier f's declarations name, and
// to tests f's top-level funcs when f is a test file.
func declaredNames(f *ast.File, isTest bool, names map[string]bool, tests *[]string) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && isTest {
			*tests = append(*tests, fd.Name.Name)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			names[n.Name.Name] = true
		case *ast.TypeSpec:
			names[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				names[id.Name] = true
			}
		}
		return true
	})
}

// The docs that cite. CHANGES.md and ROADMAP.md record what was true when
// each entry was written, and are not read.
var citingDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	"scripts/check.sh", ".github/workflows/check.yml",
}

// TestDocsCiteWhatExists reads README.md, DESIGN.md, EXPERIMENTS.md, the
// verify skill, scripts/check.sh, the CI workflow and the comments of
// every Go file outside testdata, bench/history and the frozen
// cmd/cedarperf, and fails with one "file:line: citation" per test name,
// section title or bench/history path that names nothing (the rules are
// stale's). It parses without type-checking and takes well under a second.
func TestDocsCiteWhatExists(t *testing.T) {
	ix := citationIndex{
		declared: map[string]bool{},
		sections: map[string][]string{},
		exists:   func(p string) bool { _, err := os.Stat(p); return err == nil },
	}
	fset := token.NewFileSet()
	type citing struct {
		path  string
		lines []docLine
	}
	var cited []citing
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == ".":
			case strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				path == "bench/history", path == "cmd/cedarperf":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declaredNames(f, strings.HasSuffix(path, "_test.go"), ix.declared, &ix.tests)
		cited = append(cited, citing{path, commentLines(fset, f)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ix.tests)
	for _, path := range citingDocs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, ".md") && !strings.Contains(path, "/") {
			ix.sections[path] = markdownSections(string(src))
		}
		cited = append(cited, citing{path, fileLines(path, string(src))})
	}
	for _, c := range cited {
		for _, miss := range ix.stale(c.path, c.lines) {
			t.Error(miss)
		}
	}
}

// TestStaleCitationRules feeds stale one fabricated citation of each kind,
// so an edit that lets a rule pass everything fails here.
func TestStaleCitationRules(t *testing.T) {
	ix := citationIndex{
		tests:    []string{"TestBuildBudget", "TestSteadyStateAllocsLoops", "TestSteadyStateAllocsWaitLoops"},
		declared: map[string]bool{"TestOp": true},
		sections: map[string][]string{"DESIGN.md": markdownSections("# Title\n\n## Engine core: the event wheel\n\n**Claims.** The paper's claims.\n\n```\n## Fenced\n```\n")},
		exists:   func(p string) bool { return p == "bench/history/PR41/lines.txt" },
	}
	for _, c := range []struct {
		text string
		miss string // "" when the citation names something
	}{
		{"see TestNoSuchGate", "TestNoSuchGate"},
		{"the TestSteadyStateAllocsNope* gates", "TestSteadyStateAllocsNope"},
		{"go test -run 'TestSteadyStateAllocs' ./internal/cfrt", ""},
		{"TestBuildBudget and Tests in general", ""},
		{"network.TestOp", ""},
		{`DESIGN.md, "No such section"`, `DESIGN.md "No such section"`},
		{`DESIGN.md ("Engine core")`, ""},
		{`DESIGN.md's "Claims"`, ""},
		{`DESIGN.md "Fenced"`, `DESIGN.md "Fenced"`},
		{`DESIGN.md "Engine core" and "Nope"`, `DESIGN.md "Nope"`},
		{"wrapped over DESIGN.md \"Engine core: the\n event wheel\"", ""},
		{"bench/history/PR41/lines.txt.", ""},
		{"bench/history/PR99/NOTES.md", "bench/history/PR99/NOTES.md"},
	} {
		var lines []docLine
		for i, l := range strings.Split(c.text, "\n") {
			lines = append(lines, docLine{10 + i, l})
		}
		got := ix.stale("doc.md", lines)
		want := []string(nil)
		if c.miss != "" {
			want = []string{"doc.md:10: " + c.miss}
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%q: stale = %q, want %q", c.text, got, want)
		}
	}
}

// Package linttest is a small stand-in for
// golang.org/x/tools/go/analysis/analysistest: it runs one lint.Analyzer
// over a golden package under testdata and matches the diagnostics
// against // want comments.
//
// Each expectation is written at the end of the offending line:
//
//	x := rand.Intn(10) // want `rand\.Intn`
//
// The backquoted text is a regular expression matched against the
// diagnostic message; several expectations may share one line. Every
// diagnostic must be matched by a want and every want must be matched by
// a diagnostic, so clean (negative) lines simply carry no comment.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cedar/internal/lint"
)

var wantRE = regexp.MustCompile("`([^`]*)`")

// Run analyzes the golden package in dir (e.g. "testdata/src/nondet")
// and reports any mismatch between diagnostics and // want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := lint.CheckPackage(pkg, a)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	matchWants(t, pkg, diags)
}

// matchWants checks diagnostics against the // want comments of the
// golden sources: every diagnostic needs a matching want on its line and
// every want needs a matching diagnostic.
func matchWants(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", k.file, k.line, d.Check, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// load parses and type-checks the single golden package in dir. Golden
// packages may import the standard library only.
func load(dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	path := filepath.Base(dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

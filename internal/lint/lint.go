// Package lint is a minimal static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, built entirely on the standard library
// (this module deliberately has no external dependencies). It hosts the
// project-specific analyzers under internal/lint/, which vet_test.go runs
// over the whole module as a tier-1 test; see DESIGN.md "Static checks".
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. There is no waiver: a finding is fixed in the
// code, or, if it is a false positive, in the rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the check in output.
	Name string
	// Run inspects the package behind pass and reports findings.
	Run func(pass *Pass) error
}

// A Pass connects an Analyzer to the package under inspection.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax, including in-package _test.go files.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file. Several analyzers
// relax their rules inside tests (golden values and panics are fine
// there).
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// A Diagnostic is one finding, located by resolved position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// CheckPackage runs the analyzers over one loaded package and returns
// their diagnostics sorted by position.
func CheckPackage(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags, nil
}

// Package lint is a minimal static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, built entirely on the standard library
// (this module deliberately has no external dependencies). It exists to
// host cedarvet, the suite of project-specific analyzers that enforce the
// simulator's determinism and parameter-hygiene invariants; see DESIGN.md
// "Determinism invariants and cedarvet".
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Findings can be suppressed at the source line
// with a directive comment:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// A directive suppresses matching diagnostics on its own line and on the
// line directly below it, so both trailing-comment and own-line placement
// work:
//
//	t := time.Now() //lint:allow nondeterminism wall-clock is for the CLI banner only
//
//	//lint:allow paramhygiene this 512 is a test matrix order, not the PFU depth
//	n := 512
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
	// Name identifies the check in output and in //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the check enforces.
	Doc string
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

// Filename returns the name of the file holding f.
func (p *Pass) Filename(f *ast.File) string {
	return p.Fset.Position(f.Pos()).Filename
}

// IsTestFile reports whether f is a _test.go file. Several analyzers
// relax their rules inside tests (seeded randomness and wall-clock reads
// are fine there).
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Filename(f), "_test.go")
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

// allowDirective is the comment prefix of a suppression.
const allowDirective = "//lint:allow"

// MalformedCheck is the pseudo-check name under which broken //lint:allow
// directives are reported. It cannot itself be suppressed.
const MalformedCheck = "lintdirective"

// StaleCheck is the pseudo-check name under which the suppression audit
// reports //lint:allow directives that no longer suppress a live finding.
// Like MalformedCheck it cannot itself be suppressed: a stale directive
// is dead weight that hides nothing and must be deleted, not waived.
const StaleCheck = "lintstale"

// directive is one parsed //lint:allow comment.
type directive struct {
	pos   token.Position
	check string
	used  bool
}

// Directives holds the parsed //lint:allow suppressions of one package.
type Directives struct {
	list []*directive
	// allow maps filename -> line -> directives covering that line.
	allow map[string]map[int][]*directive
	// Malformed collects directives missing a check name or a reason.
	Malformed []Diagnostic
}

// ParseDirectives scans the comments of files for //lint:allow.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{allow: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					d.Malformed = append(d.Malformed, Diagnostic{
						Pos:     pos,
						Check:   MalformedCheck,
						Message: "malformed directive: want //lint:allow <check> <reason>",
					})
					continue
				}
				dir := &directive{pos: pos, check: fields[0]}
				d.list = append(d.list, dir)
				byLine := d.allow[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*directive{}
					d.allow[pos.Filename] = byLine
				}
				// A directive covers its own line (trailing comment)
				// and the next line (own-line comment above the code).
				for _, line := range []int{pos.Line, pos.Line + 1} {
					byLine[line] = append(byLine[line], dir)
				}
			}
		}
	}
	return d
}

// Suppressed reports whether diag is covered by an allow directive, and
// marks the covering directive as live for the stale-suppression audit.
func (d *Directives) Suppressed(diag Diagnostic) bool {
	if diag.Check == MalformedCheck || diag.Check == StaleCheck {
		return false
	}
	hit := false
	for _, dir := range d.allow[diag.Pos.Filename][diag.Pos.Line] {
		if dir.check == diag.Check {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// Stale reports directives that suppressed nothing, restricted to checks
// for which audited returns true (a directive for a check that did not
// run this pass cannot be judged). known tells whether a check name
// exists at all; unknown names are always reported when audited.
func (d *Directives) Stale(audited, known func(check string) bool, validList string) []Diagnostic {
	var out []Diagnostic
	for _, dir := range d.list {
		if dir.used || !audited(dir.check) {
			continue
		}
		msg := fmt.Sprintf("//lint:allow %s suppresses no finding; delete the stale directive", dir.check)
		if !known(dir.check) {
			msg = fmt.Sprintf("//lint:allow names unknown check %q (valid: %s)", dir.check, validList)
		}
		out = append(out, Diagnostic{Pos: dir.pos, Check: StaleCheck, Message: msg})
	}
	return out
}

// A ScopedAnalyzer pairs a package analyzer with the subset of packages
// it applies to. A nil Applies means everywhere.
type ScopedAnalyzer struct {
	Analyzer *Analyzer
	Applies  func(pkgPath string) bool
}

// A Suite is the full set of checks run over one module load: scoped
// per-package analyzers plus whole-module analyzers.
type Suite struct {
	Package []ScopedAnalyzer
	Module  []*ModuleAnalyzer
}

// Names returns every check name in the suite, sorted.
func (s *Suite) Names() []string {
	var names []string
	for _, sa := range s.Package {
		names = append(names, sa.Analyzer.Name)
	}
	for _, ma := range s.Module {
		names = append(names, ma.Name)
	}
	sort.Strings(names)
	return names
}

// Has reports whether the suite contains a check with the given name.
func (s *Suite) Has(name string) bool {
	for _, n := range s.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes the suite over a module's packages, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
// The result includes malformed directives and the stale-suppression
// audit: any directive naming an enabled check that suppressed nothing is
// itself a finding (check "lintstale"), as is a directive naming a check
// the suite has never heard of. enabled filters checks by name; nil runs
// everything. Directives for disabled checks are left alone — they cannot
// be judged on a partial run — and so are a module analyzer's directives
// when pkgs is less than the whole module: what it reports from part of
// the call graph is real, what it does not report proves nothing.
func (s *Suite) Run(pkgs []*Package, enabled func(name string) bool) ([]Diagnostic, error) {
	if enabled == nil {
		enabled = func(string) bool { return true }
	}

	dirsByPkg := make([]*Directives, len(pkgs))
	fileDirs := map[string]*Directives{}
	var diags []Diagnostic
	for i, pkg := range pkgs {
		d := ParseDirectives(pkg.Fset, pkg.Files)
		dirsByPkg[i] = d
		for filename := range d.allow {
			fileDirs[filename] = d
		}
		diags = append(diags, d.Malformed...)
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, sa := range s.Package {
			if !enabled(sa.Analyzer.Name) {
				continue
			}
			if sa.Applies != nil && !sa.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: sa.Analyzer,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			}
			if err := sa.Analyzer.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", sa.Analyzer.Name, pkg.Path, err)
			}
		}
	}
	if len(s.Module) > 0 {
		mod := NewModule(pkgs)
		for _, ma := range s.Module {
			if !enabled(ma.Name) {
				continue
			}
			pass := &ModulePass{Analyzer: ma, Module: mod, diags: &raw}
			if err := ma.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", ma.Name, err)
			}
		}
	}

	for _, d := range raw {
		fd := fileDirs[d.Pos.Filename]
		if fd != nil && fd.Suppressed(d) {
			continue
		}
		diags = append(diags, d)
	}

	// Stale-suppression audit. Only directives naming enabled checks are
	// judged; on a full run that is every directive, so unknown check
	// names surface too.
	partial := map[string]bool{} // module checks a less-than-whole load cannot judge
	if len(pkgs) == 0 || !pkgs[0].whole {
		for _, ma := range s.Module {
			partial[ma.Name] = true
		}
	}
	audited := func(check string) bool {
		if partial[check] {
			return false
		}
		if s.Has(check) {
			return enabled(check)
		}
		// Unknown check names only surface on a full run: a subset run
		// cannot distinguish "misspelled" from "not selected today".
		return enabled(StaleCheck)
	}
	validList := strings.Join(s.Names(), ", ")
	for _, d := range dirsByPkg {
		diags = append(diags, d.Stale(audited, s.Has, validList)...)
	}

	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
}

// CheckPackage runs the analyzers over one loaded package, applies the
// package's //lint:allow directives, and returns the surviving
// diagnostics sorted by position (malformed directives included). Unlike
// Suite.Run it performs no stale-suppression audit, which keeps golden
// linttest packages focused on one analyzer at a time.
func CheckPackage(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	dirs := ParseDirectives(pkg.Fset, pkg.Files)
	diags := append([]Diagnostic(nil), dirs.Malformed...)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			if !dirs.Suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

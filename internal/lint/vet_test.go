package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/lint"
	"cedar/internal/lint/cycleint"
	"cedar/internal/lint/errflow"
	"cedar/internal/lint/nondeterminism"
	"cedar/internal/lint/paramhygiene"
)

// TestModuleIsLintClean runs the analyzers over every package of the
// module, in-package tests included, and fails with one
// file:line:col: check: message line per finding, paths relative to the
// module root. paramhygiene and cycleint cover the whole module;
// nondeterminism and errflow the root package and internal/**, the
// simulator proper: commands may exit the process and print unchecked.
// Each rule is here because it catches a planted bug the rest of tier-1
// passes (EXPERIMENTS.md, "cedarvet — what each check has caught").
func TestModuleIsLintClean(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checking the whole module from source is slow under the race detector, and nothing it checks is a race")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	for _, pkg := range pkgs {
		analyzers := []*lint.Analyzer{paramhygiene.Analyzer, cycleint.Analyzer}
		if pkg.Path == loader.Module || strings.HasPrefix(pkg.Path, loader.Module+"/internal/") {
			analyzers = append(analyzers, nondeterminism.Analyzer, errflow.Analyzer)
		}
		diags, err := lint.CheckPackage(pkg, analyzers...)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			file, err := filepath.Rel(root, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			d.Pos.Filename = filepath.ToSlash(file)
			findings = append(findings, d.String())
		}
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s):\n%s", len(findings), strings.Join(findings, "\n"))
	}
}

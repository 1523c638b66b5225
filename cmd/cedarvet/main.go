// Command cedarvet runs the project's custom static-analysis suite — five
// checks: nondeterminism, paramhygiene, cycleint, errflow and the
// whole-module hotalloc — over the module. It is the multichecker for the
// analyzers under internal/lint; see DESIGN.md "Determinism invariants and
// cedarvet" and "cedarvet v2: whole-module analyses". Each check is there
// because it has reported something on this module's history
// (EXPERIMENTS.md, "cedarvet — what each check has caught").
//
// Usage:
//
//	cedarvet [-checks list] [-json] [package patterns]
//
// Patterns default to ./... . Examples:
//
//	cedarvet ./...
//	cedarvet -checks nondeterminism,errflow ./internal/...
//	cedarvet -json ./... > cedarvet.json
//
// Findings print as file:line:col: check: message (paths relative to the
// module root) and make the exit status 1; a clean run exits 0 and tool
// failures — including an unknown name in -checks — exit 2. With -json
// the findings print as a JSON array instead, byte-deterministic across
// runs, for CI artifact diffing. Individual findings can be waived in the
// source with a justified directive:
//
//	//lint:allow <check> <reason>
//
// A directive that no longer suppresses anything is itself reported
// (check "lintstale") on full runs, so waivers cannot outlive their
// findings.
//
// Scope: paramhygiene, cycleint and the whole-module hotalloc run
// everywhere; nondeterminism and errflow cover the root package and
// internal/** (the simulator proper) — commands may legitimately read
// the wall clock, exit the process, and print unchecked. hotalloc's reachability runs over the packages the patterns
// loaded, so its verdict — and the staleness of a //lint:allow hotalloc —
// is complete only on ./... .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cedar/internal/lint"
	"cedar/internal/lint/cycleint"
	"cedar/internal/lint/errflow"
	"cedar/internal/lint/hotalloc"
	"cedar/internal/lint/nondeterminism"
	"cedar/internal/lint/paramhygiene"
)

// simulatorOnly restricts a check to the model itself.
func simulatorOnly(pkgPath string) bool {
	return pkgPath == "cedar" || strings.HasPrefix(pkgPath, "cedar/internal/")
}

// suite is the full cedarvet v2 analyzer set with each check's scope.
var suite = &lint.Suite{
	Package: []lint.ScopedAnalyzer{
		{Analyzer: nondeterminism.Analyzer, Applies: simulatorOnly},
		{Analyzer: paramhygiene.Analyzer},
		{Analyzer: cycleint.Analyzer},
		{Analyzer: errflow.Analyzer, Applies: simulatorOnly},
	},
	Module: []*lint.ModuleAnalyzer{
		hotalloc.Analyzer,
	},
}

// docOf returns the one-line doc for usage output.
func docOf(name string) string {
	for _, s := range suite.Package {
		if s.Analyzer.Name == name {
			return s.Analyzer.Doc
		}
	}
	for _, m := range suite.Module {
		if m.Name == name {
			return m.Doc
		}
	}
	return ""
}

// jsonDiagnostic is the -json wire form of one finding. File paths are
// module-root-relative with forward slashes, so the output is identical
// regardless of checkout location or invocation directory.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, for tests. Exit codes: 0 clean,
// 1 findings, 2 tool failure (bad flags, unknown checks, load errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cedarvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks (default: all)")
	jsonOut := fs.Bool("json", false, "print findings as a deterministic JSON array")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cedarvet [-checks list] [-json] [package patterns]\n\nchecks:\n")
		for _, name := range suite.Names() {
			fmt.Fprintf(stderr, "  %-16s %s\n", name, docOf(name))
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var enabled func(name string) bool
	if *checks != "" {
		set := map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if !suite.Has(c) {
				fmt.Fprintf(stderr, "cedarvet: unknown check %q (valid: %s)\n", c, strings.Join(suite.Names(), ", "))
				return 2
			}
			set[c] = true
		}
		enabled = func(name string) bool { return set[name] }
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "cedarvet: %v\n", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "cedarvet: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "cedarvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cedarvet: %v\n", err)
		return 2
	}

	diags, err := suite.Run(pkgs, enabled)
	if err != nil {
		fmt.Fprintf(stderr, "cedarvet: %v\n", err)
		return 2
	}

	// Module-root-relative forward-slash paths: deterministic output no
	// matter where the checkout lives or where cedarvet was invoked.
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiagnostic{File: file, Line: d.Pos.Line, Col: d.Pos.Column, Check: d.Check, Message: d.Message})
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "cedarvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range out {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Check, d.Message)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(stderr, "cedarvet: %d finding(s)\n", len(out))
		return 1
	}
	return 0
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("cedar/internal/tables").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks packages of one module using only the standard
// library: module-internal imports are resolved from source under the
// module root, and standard-library imports go through the compiler's
// source importer. This is a deliberately small stand-in for
// golang.org/x/tools/go/packages, which this dependency-free module
// cannot vendor.
type Loader struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Module is the module path from go.mod.
	Module string
	Fset   *token.FileSet

	std     types.ImporterFrom
	deps    map[string]*types.Package
	loading map[string]bool
}

// NewLoader reads go.mod under root and prepares a loader.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:    root,
		Module:  module,
		Fset:    fset,
		deps:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func (l *Loader) inModule(path string) bool {
	return path == l.Module || strings.HasPrefix(path, l.Module+"/")
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// Import implements types.Importer for the type-checker: module packages
// load from source (without test files), everything else falls through to
// the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !l.inModule(path) {
		return l.std.ImportFrom(path, l.Root, 0)
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(l.dirFor(path), false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", l.dirFor(path))
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}

// Load type-checks every package of the module for analysis, walking
// the module root in directory order and skipping testdata, vendor and
// directories whose names start with "." or "_". Analysis packages
// include their in-package _test.go files; external (_test-package)
// files are skipped.
func (l *Loader) Load() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.Root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		p, err := l.loadDir(dir)
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return err
	})
	return pkgs, err
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// parseDir parses the package in dir. Only files of the primary
// (non-test) package clause are kept, so an external _test package in the
// same directory never mixes in. Returns nil when the directory holds no
// non-test Go files.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		name string
		test bool
		file *ast.File
	}
	var all []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Respect //go:build constraints and GOOS/GOARCH filename
		// suffixes the way the go tool would (e.g. a "//go:build race"
		// twin of a "!race" file must not both load).
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		all = append(all, parsed{name: f.Name.Name, test: strings.HasSuffix(name, "_test.go"), file: f})
	}
	primary := ""
	for _, p := range all {
		if !p.test {
			if primary != "" && primary != p.name {
				return nil, fmt.Errorf("%s: conflicting package names %s and %s", dir, primary, p.name)
			}
			primary = p.name
		}
	}
	if primary == "" {
		return nil, nil
	}
	var files []*ast.File
	for _, p := range all {
		if p.name != primary || (p.test && !includeTests) {
			continue
		}
		files = append(files, p.file)
	}
	return files, nil
}

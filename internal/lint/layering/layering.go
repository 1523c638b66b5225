// Package layering enforces the module's declared package DAG: every
// package is assigned a layer number, and an import may only point at an
// equal or lower layer. Same-layer imports are allowed (the memory
// subsystem is one layer with internal structure); upward imports — a
// fabric reaching into the core, a parameter package growing a simulator
// dependency — are findings. A module package missing from the table is
// also a finding, so new packages must be placed deliberately.
package layering

import (
	"sort"
	"strconv"
	"strings"

	"cedar/internal/lint"
)

// Config declares the layer DAG for one module.
type Config struct {
	// Layers maps module-relative package paths ("internal/sim", "" for
	// the module root) to layer numbers. Higher layers may import lower
	// or equal ones.
	Layers map[string]int
	// Prefixes assigns a layer to whole subtrees ("cmd/", "internal/lint")
	// when no exact entry matches. Longest matching prefix wins.
	Prefixes map[string]int
}

// DefaultConfig is the cedar module's layer DAG, bottom to top:
//
//	 0  params, sim, perfmon, ppt, comparator, lint (leaf vocabulary + engines)
//	 1  scope            (metrics hub: params + perfmon)
//	 2  fault            (deterministic injection: params + scope)
//	 3  network          (fabrics: fault)
//	 4  gmem cmem cache ccbus prefetch   (memory system: network + fault)
//	 5  ce vm            (compute engine + reference VM)
//	 6  core xylem       (whole-machine assembly, workload gen)
//	 7  cfrt             (kernel runtime over core)
//	 8  kernels perfect  (paper workloads + cross-validation)
//	 9  fleet store      (experiment orchestration over scope alone — fleet
//	                      imports no fault, params or machine package: what a
//	                      key covers is its caller's business — and the
//	                      durable result store)
//	10  tables cliutil bench  (paper tables and their run configuration
//	                      tables.Env, the CLI session that builds one, perf
//	                      campaigns)
//	11  cedar serve      (module root facade, experiment-serving daemon core)
//	12  cmd/* examples/* (binaries and examples)
var DefaultConfig = Config{
	Layers: map[string]int{
		"internal/params":     0,
		"internal/sim":        0,
		"internal/perfmon":    0,
		"internal/ppt":        0,
		"internal/comparator": 0,
		"internal/scope":      1,
		"internal/fault":      2,
		"internal/network":    3,
		"internal/gmem":       4,
		"internal/cmem":       4,
		"internal/cache":      4,
		"internal/ccbus":      4,
		"internal/prefetch":   4,
		"internal/ce":         5,
		"internal/vm":         5,
		"internal/core":       6,
		"internal/xylem":      6,
		"internal/cfrt":       7,
		"internal/kernels":    8,
		"internal/perfect":    8,
		"internal/fleet":      9,
		"internal/store":      9,
		"internal/tables":     10,
		"internal/cliutil":    10,
		"internal/bench":      10,
		"":                    11,
		"internal/serve":      11,
	},
	Prefixes: map[string]int{
		"internal/lint": 0,
		"cmd/":          12,
		"examples/":     12,
	},
}

// Analyzer is layering with the cedar layer DAG.
var Analyzer = New(DefaultConfig)

// New builds a layering analyzer for the given DAG.
func New(cfg Config) *lint.ModuleAnalyzer {
	a := &lint.ModuleAnalyzer{
		Name: "layering",
		Doc:  "enforces the declared package layer DAG: imports must not point upward",
	}
	a.Run = func(pass *lint.ModulePass) error { return run(pass, cfg) }
	return a
}

// layerOf resolves a module-relative package path to its layer.
func (c Config) layerOf(rel string) (int, bool) {
	if l, ok := c.Layers[rel]; ok {
		return l, true
	}
	best, bestLen, found := 0, -1, false
	for prefix, l := range c.Prefixes {
		if (strings.HasPrefix(rel, prefix) || rel == strings.TrimSuffix(prefix, "/")) && len(prefix) > bestLen {
			best, bestLen, found = l, len(prefix), true
		}
	}
	return best, found
}

func relPath(pkg *lint.Package) string {
	if pkg.Path == pkg.Module {
		return ""
	}
	return strings.TrimPrefix(pkg.Path, pkg.Module+"/")
}

func run(pass *lint.ModulePass, cfg Config) error {
	// Deterministic package order.
	pkgs := append([]*lint.Package(nil), pass.Module.Packages...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	for _, pkg := range pkgs {
		rel := relPath(pkg)
		from, ok := cfg.layerOf(rel)
		if !ok {
			if len(pkg.Files) > 0 {
				pass.Reportf(pkg.Files[0].Package,
					"package %s is not assigned a layer; add it to the layering DAG", pkg.Path)
			}
			continue
		}
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(filename, "_test.go") {
				continue // tests may reach anywhere (cross-validation does)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				impRel, inModule := moduleRel(path, pkg.Module)
				if !inModule {
					continue
				}
				to, ok := cfg.layerOf(impRel)
				if !ok {
					continue // the unassigned package is reported at its own clause
				}
				if from < to {
					pass.Reportf(imp.Path.Pos(),
						"layering violation: %s (layer %d) imports %s (layer %d); imports must point at equal or lower layers",
						pkg.Path, from, path, to)
				}
			}
		}
	}
	return nil
}

func moduleRel(importPath, module string) (string, bool) {
	if importPath == module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, module+"/"); ok {
		return rest, true
	}
	return "", false
}

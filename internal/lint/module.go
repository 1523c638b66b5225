package lint

import (
	"fmt"
	"go/token"
)

// A ModuleAnalyzer is one named check over the whole module at once: it
// sees every type-checked package of a load in a single pass, which is
// what a cross-package property (call-graph reachability) needs. Module
// analyzers share the //lint:allow suppression mechanism with per-package
// Analyzers.
type ModuleAnalyzer struct {
	// Name identifies the check in output and in //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the check enforces.
	Doc string
	// Run inspects the module behind pass and reports findings.
	Run func(pass *ModulePass) error
}

// A Module is the unit of whole-module analysis: every package of one
// load, plus the lazily built conservative call graph over them.
type Module struct {
	// Packages holds the loaded packages in load order (sorted by
	// directory, so deterministic).
	Packages []*Package
	// Fset is the file set shared by every package of the load.
	Fset *token.FileSet

	graph *CallGraph
}

// NewModule assembles a module from loaded packages. All packages must
// come from one Loader (they share its FileSet).
func NewModule(pkgs []*Package) *Module {
	m := &Module{Packages: pkgs}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	} else {
		m.Fset = token.NewFileSet()
	}
	return m
}

// CallGraph returns the module's conservative call graph, building it on
// first use.
func (m *Module) CallGraph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m)
	}
	return m.graph
}

// A ModulePass connects a ModuleAnalyzer to the module under inspection.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Module.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

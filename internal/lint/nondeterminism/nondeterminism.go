// Package nondeterminism flags the process-global math/rand source, in
// tests as in the simulator: randomness must flow through an explicitly
// seeded rand.New(rand.NewSource(seed)), so a run — and a failing
// property test — replays.
//
// A seed drawn from the global source in a property test changes no
// output that any gate compares, so only this rule sees it. The other
// determinism invariants are executed by tests instead:
//   - no wall clock in results: TestWriteReportDeterministic, the report
//     golden and the cedarsim identity manifest compare output bytes;
//   - no goroutine or select racing the tick order: the jobs and engine
//     equality gates (TestParallelVsSequentialEquality,
//     TestSteppedVsEventEquality) compare whole runs, the steady-state
//     allocation and run budgets count the host work of a tick, and
//     go test -race watches whatever concurrency remains.
package nondeterminism

import (
	"go/ast"
	"go/types"

	"cedar/internal/lint"
)

// Analyzer is the nondeterminism check.
var Analyzer = &lint.Analyzer{
	Name: "nondeterminism",
	Run:  run,
}

// seededConstructors are the math/rand functions that build an explicitly
// seeded generator and are therefore allowed.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 additions.
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := packageOf(pass, sel)
			if !ok || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
				return true
			}
			if name := sel.Sel.Name; !seededConstructors[name] && isFunc(pass, sel.Sel) {
				pass.Reportf(sel.Pos(), "global math/rand source (rand.%s) is not reproducibly seeded; use rand.New(rand.NewSource(seed))", name)
			}
			return true
		})
	}
	return nil
}

// packageOf resolves sel's receiver to an imported package path.
func packageOf(pass *lint.Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isFunc reports whether sel names a function (not a type or variable).
func isFunc(pass *lint.Pass, sel *ast.Ident) bool {
	_, ok := pass.Info.Uses[sel].(*types.Func)
	return ok
}

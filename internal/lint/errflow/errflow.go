// Package errflow enforces error-flow hygiene in internal packages:
// errors propagate, they do not vanish.
//
//   - panic is reserved for documented invariant violations: the
//     enclosing function's doc comment must say so (mention "panic"), or
//     the function must follow the Must* naming convention. Anything
//     else should return an error.
//   - os.Exit is forbidden: only main owns the process.
//   - A call whose results include an error must not be used as a bare
//     statement (or deferred) with the error silently dropped. The
//     never-failing writers — package fmt's print family, strings.Builder
//     and bytes.Buffer methods — are exempt.
//
// Test files are exempt from all three rules.
package errflow

import (
	"go/ast"
	"go/types"
	"strings"

	"cedar/internal/lint"
)

// Analyzer is the errflow check.
var Analyzer = &lint.Analyzer{
	Name: "errflow",
	Run:  run,
}

var errType = types.Universe.Lookup("error").Type()

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// panicDocumented reports whether fd declares its panic behaviour: a doc
// comment mentioning panic, or the Must* naming convention (whose whole
// contract is "panics instead of returning an error").
func panicDocumented(fd *ast.FuncDecl) bool {
	if strings.HasPrefix(fd.Name.Name, "Must") {
		return true
	}
	return fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	docOK := panicDocumented(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDiscard(pass, call)
			}
		case *ast.DeferStmt:
			checkDiscard(pass, n.Call)
		case *ast.GoStmt:
			checkDiscard(pass, n.Call)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin && !docOK {
					pass.Reportf(n.Pos(),
						"undocumented panic; say \"Panics if ...\" in the doc comment of %s or return an error", fd.Name.Name)
				}
			}
			if pkg, fn, ok := pkgCall(pass.Info, n.Fun); ok && pkg == "os" && fn == "Exit" {
				pass.Reportf(n.Pos(), "os.Exit in internal code; return an error and let main own the process")
			}
		}
		return true
	})
}

// checkDiscard flags a statement-position call whose results include an
// error that nothing receives.
func checkDiscard(pass *lint.Pass, call *ast.CallExpr) {
	if !returnsError(pass.Info, call) || exemptCallee(pass.Info, call.Fun) {
		return
	}
	pass.Reportf(call.Pos(),
		"error return of %s is silently discarded; handle it or assign it explicitly", types.ExprString(call.Fun))
}

// returnsError reports whether the call's result list contains an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errType)
	}
}

// exemptCallee lists the callees whose error results are fiction:
// package fmt's print family and the in-memory writers, which are
// documented never to fail.
func exemptCallee(info *types.Info, fun ast.Expr) bool {
	if pkg, fn, ok := pkgCall(info, fun); ok {
		return pkg == "fmt" && strings.HasPrefix(fn, "Print") || pkg == "fmt" && strings.HasPrefix(fn, "Fprint")
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// pkgCall resolves fun to (package path, function name) for pkg.F calls.
func pkgCall(info *types.Info, fun ast.Expr) (string, string, bool) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

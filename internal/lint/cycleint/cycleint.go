// Package cycleint flags narrowing of int64 cycle counts. Simulated time
// in this repo is always an int64 cycle count (a full-scale Perfect run
// simulates billions of cycles); squeezing one through int or int32 —
// in a conversion or by declaring a cycle-named struct field narrow —
// silently truncates on 32-bit builds or long runs.
//
// A conversion is flagged when the operand is "cycle-flavored": its type
// is int64 (or names Cycle) and the expression or its type mentions
// cycle. A struct field is flagged when its name mentions cycle but its
// type is a narrower integer. Plain int conversions of non-cycle values
// (word counts, indices) stay clean, and so does a remainder by a divisor
// widened from the destination type (int(cycle % int64(n)) with n an
// int), which always fits.
package cycleint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"cedar/internal/lint"
)

// Analyzer is the cycleint check.
var Analyzer = &lint.Analyzer{
	Name: "cycleint",
	Run:  run,
}

var cycleName = regexp.MustCompile(`(?i)cycle`)

// narrowInts are integer kinds that cannot hold a full cycle count on
// every platform.
var narrowInts = map[types.BasicKind]bool{
	types.Int: true, types.Int32: true, types.Int16: true, types.Int8: true,
	types.Uint: true, types.Uint32: true, types.Uint16: true, types.Uint8: true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, n)
			case *ast.StructType:
				checkFields(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkConversion(pass *lint.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || !narrowInts[dst.Kind()] {
		return
	}
	src := pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	sb, ok := src.Underlying().(*types.Basic)
	if !ok || (sb.Kind() != types.Int64 && sb.Kind() != types.Uint64) {
		return
	}
	if !cycleFlavored(call.Args[0], src) || remainderFits(pass, call.Args[0], tv.Type) {
		return
	}
	pass.Reportf(call.Pos(), "narrowing int64 cycle count %s to %s truncates long simulations; keep cycle arithmetic in int64", exprString(call.Args[0]), tv.Type.String())
}

func checkFields(pass *lint.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || !narrowInts[b.Kind()] {
			continue
		}
		for _, name := range field.Names {
			if cycleName.MatchString(name.Name) {
				pass.Reportf(name.Pos(), "cycle-count field %s declared %s; declare it int64 so long simulations cannot truncate", name.Name, t.String())
			}
		}
	}
}

// remainderFits reports whether e is a remainder by a divisor widened
// from dst, as in int(cycle % int64(n)) with n an int: the result is
// smaller in magnitude than n, so it fits where n came from.
func remainderFits(pass *lint.Pass, e ast.Expr, dst types.Type) bool {
	rem, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || rem.Op != token.REM {
		return false
	}
	conv, ok := ast.Unparen(rem.Y).(*ast.CallExpr)
	if !ok || len(conv.Args) != 1 {
		return false
	}
	if tv, ok := pass.Info.Types[conv.Fun]; !ok || !tv.IsType() {
		return false
	}
	n := pass.Info.TypeOf(conv.Args[0])
	return n != nil && types.Identical(n, dst)
}

// cycleFlavored reports whether the expression or its type talks about
// cycles.
func cycleFlavored(e ast.Expr, t types.Type) bool {
	if named, ok := t.(*types.Named); ok && cycleName.MatchString(named.Obj().Name()) {
		return true
	}
	flavored := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && cycleName.MatchString(id.Name) {
			flavored = true
		}
		return !flavored
	})
	return flavored
}

// exprString renders a short label for the flagged operand.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	default:
		return "expression"
	}
}

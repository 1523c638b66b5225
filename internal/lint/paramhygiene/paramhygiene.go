// Package paramhygiene flags hardware constants from the Cedar paper's
// parameter table appearing outside internal/params. Magic copies of the
// machine description (the 170 ns cycle, the 13-cycle global load, the
// 512-deep prefetch unit, the 768 MB/s wiring peak, ...) silently drift
// when the central table is retuned, which is exactly how a calibrated
// performance model loses credibility.
//
// Two flavors of rule:
//
//   - Distinctive values (170.0 ns, 768 MB/s, 176-cycle fetch&lock,
//     5.88 MHz, 11.8 MFLOPS/CE) are flagged wherever they appear as
//     numeric literals.
//   - Collision-prone values (13, 512, 300) are flagged only when the
//     nearest declaration context — a struct-literal key, assignment
//     target, or const/var name — reads like a hardware parameter
//     (latency, prefetch, depth, bandwidth, buffer, ...), so loop bounds
//     and matrix orders stay usable.
//
// String literals quoting the figures with their units ("768 MB/s",
// "170 ns") are flagged too: baked-in report text contradicts the model
// the moment someone retunes params. Interpolate the named constant.
//
// The internal/params package itself and _test.go files (golden values)
// are exempt.
package paramhygiene

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"

	"cedar/internal/lint"
)

// Analyzer is the paramhygiene check.
var Analyzer = &lint.Analyzer{
	Name: "paramhygiene",
	Run:  run,
}

// knownValue is one entry of the paper's parameter table.
type knownValue struct {
	val   constant.Value
	param string // the params identifier to use instead
	gated bool   // only flagged in hardware-ish declaration context
}

// mk parses a literal exactly (rationally), so 170, 170. and 170.0 all
// compare equal while 5.88 stays the decimal 5.88, not its float64
// rounding.
func mk(lit string) constant.Value {
	kind := token.INT
	if strings.ContainsAny(lit, ".eE") {
		kind = token.FLOAT
	}
	return constant.MakeFromLiteral(lit, kind, 0)
}

var knownValues = []knownValue{
	{mk("170.0"), "params.CycleNS", false},
	{mk("5.88"), "params.CyclesPerSecond (≈5.88 MHz)", false},
	{mk("11.8"), "params.Machine.PeakMFLOPS per CE (11.8)", false},
	{mk("768"), "params.WiringPeakMBps", false},
	{mk("176"), "params.Machine.XDoallFetchLock", false},
	{mk("13"), "params.GlobalLoadLatency", true},
	{mk("512"), "params.Machine.PFUBufferWords / PFUMaxOutstanding / PageWords", true},
	{mk("300"), "params.Machine.TLBMissCost", true},
}

// hardwareContext matches declaration names that read like machine
// parameters.
var hardwareContext = regexp.MustCompile(`(?i)lat(ency)?|pref|pfu|depth|band|bw|buf|cycle|outstand|tlb|fetch`)

// stringFigures match paper figures quoted with units inside strings.
var stringFigures = regexp.MustCompile(`768\s?MB/s|170\s?ns|176[- ]cycle|13[- ]cycle`)

func run(pass *lint.Pass) error {
	if exemptPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			switch lit.Kind {
			case token.INT, token.FLOAT:
				checkNumber(pass, lit, stack)
			case token.STRING:
				if m := stringFigures.FindString(lit.Value); m != "" {
					pass.Reportf(lit.Pos(), "paper figure %q baked into string; interpolate the named constant from internal/params so report text tracks the model", m)
				}
			}
			return true
		})
	}
	return nil
}

func exemptPackage(path string) bool {
	return path == "params" || strings.HasSuffix(path, "/params")
}

func checkNumber(pass *lint.Pass, lit *ast.BasicLit, stack []ast.Node) {
	v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
	if v.Kind() == constant.Unknown {
		return
	}
	for _, kv := range knownValues {
		if !numEq(v, kv.val) {
			continue
		}
		if kv.gated && !gatedContext(stack) {
			continue
		}
		pass.Reportf(lit.Pos(), "hardware magic number %s duplicates %s; take it from internal/params", lit.Value, kv.param)
		return
	}
}

// numEq compares numerically across int/float literal kinds.
func numEq(a, b constant.Value) bool {
	return constant.Compare(constant.ToFloat(a), token.EQL, constant.ToFloat(b))
}

// gatedContext climbs the ancestor stack (innermost last) for the nearest
// naming context and asks whether it smells like a hardware parameter.
func gatedContext(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				return hardwareContext.MatchString(id.Name)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if hardwareContext.MatchString(name.Name) {
					return true
				}
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && hardwareContext.MatchString(id.Name) {
					return true
				}
			}
			return false
		case *ast.Field:
			for _, name := range n.Names {
				if hardwareContext.MatchString(name.Name) {
					return true
				}
			}
			return false
		case ast.Stmt, ast.Decl:
			// Reached a statement or declaration without any naming
			// context: the literal is a bound, size or index.
			return false
		}
	}
	return false
}

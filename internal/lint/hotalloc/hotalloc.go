// Package hotalloc flags heap-allocating constructs in per-cycle code.
//
// The per-cycle hot path is defined by reachability: any function
// reachable on the module call graph from a root — a function or method
// named Tick or Step declared in one of the configured hot packages — is
// per-cycle code. Within those functions (and only in the hot packages
// themselves, so helper code in tables/cfrt that a kernel's Next method
// drags in does not explode the report), the analyzer flags:
//
//   - &T{...} composite literals (heap escape by construction)
//   - slice and map composite literals
//   - make of slices, maps, and channels; new(T)
//   - function literals (closure environments allocate)
//   - calls into package fmt (argument boxing)
//   - append to any destination other than the self-append reuse idiom
//     x = append(x, ...), which is amortised-free once warm
//   - non-constant string concatenation
//
// Arguments of panic(...) are exempt: a panicking simulator is already
// dead, so formatting the autopsy may allocate freely.
//
// # Sanctioned allows
//
// A //lint:allow hotalloc is for an allocation that is reachable from a
// tick but bounded per run, not per cycle, and its reason must state the
// bound. The kinds in the tree today:
//
//   - reject-path and terminal-fault error construction (at most once per
//     block, CE or run, on a path a healthy run never takes)
//   - pool refill (packets by the slab, at most 5 + peak/64 refills per
//     pool per run; MSHRs on first use: steady state reuses retired
//     entries)
//   - grow-once scratch (vector-unit slices that reach the widest
//     instruction and are reused from then on)
//   - one-time lazy initialisation of a controller
//   - first-touch materialisation: state sized by a hardware capacity
//     that appears when the run first reaches it — a cache tag-store page
//     (at most one per page per run), a PFU buffer growing to a longer
//     block (at most PFUBufferWords slots per run), a global-memory chunk.
//     DESIGN.md, "Demand-materialised state", has the rule.
//
// Anything that recurs per cycle, per packet or per block is a finding to
// fix, not to allow.
//
// # What it has caught
//
// Real findings fixed in this module, not testdata (EXPERIMENTS.md,
// "cedarvet v2: hot-path allocation fixes", has the before/after): the
// per-packet &Packet{} and per-miss &mshr{} literals that became
// network.PacketPool and the cache's MSHR free-list; the per-event
// completion closures that became the sink+tag interfaces (cache.Sink,
// cmem.Sink); and per-instruction scratch slices in the CE's vector unit.
//
// # What it cannot see
//
// The rules are syntactic, so an allocation with no allocating construct
// at the site is out of reach. Three kinds have mattered: implicit
// interface boxing (container/heap boxed an element per Push on the
// crossbar; see DESIGN.md), and slide-forward slice queues — q = q[1:]
// on pop with q = append(q, x) on push is exactly the self-append idiom
// this analyzer blesses, yet the window walks off the end of its backing
// array and append reallocates every few operations for ever. The
// per-CE request queues in cache.Submit and the controller queue in
// cfrt.Runtime.Next/enq were that shape and made 61% and 34% of the
// dense and suite workloads' mallocs. Their guard is dynamic: the
// testing.AllocsPerRun gates TestSteadyStateAllocsSubmitTick
// (internal/cache), TestSteadyStateAllocsEngineRun (internal/sim),
// TestSteadyStateAllocsControllerQueue (internal/cfrt) and
// TestSteadyStateAllocsOmega (internal/network, omega and crossbar),
// which scripts/check.sh runs inside go test ./... .
//
// The third kind is not a missing construct but a missing call edge: a
// continuation reached only through a func-valued field. The runtime's
// scheduling runs inside ce.Instr.Done, which the CE's Tick calls as
// done(c.ID, ...) — a dynamic call the module call graph has no callee
// for — and cfrt is not a hot package, so nothing a completion callback
// allocates is ever reported. cfrt's flag poll and
// lock retry built a closure and two heap instructions per failed
// attempt that way, every few hundred cycles for as long as a CE waited:
// 78% of the suite workload's objects; the closure chain it built per
// iteration, claim, join and barrier was 56% of what was left. Both are
// participant state now, and the runtime binds its one Done once, not per
// participant (DESIGN.md, "Instruction ownership"). The guard is again
// dynamic: TestSteadyStateAllocsWaitLoops (internal/cfrt) runs a barrier
// spin and a contended lock claim at two wait lengths,
// TestSteadyStateAllocsLoops (internal/cfrt) runs every loop shape at two
// iteration counts, each requiring equal object counts,
// TestRuntimeCostsNoObjectPerParticipant (internal/cfrt) requires
// cfrt.New to cost Cedar64 what it costs paper Cedar, and TestRunBudget
// (internal/perfect) bounds whole proxy runs.
//
// # What only it sees
//
// The dynamic gates execute healthy runs, so a path only a fault takes is
// out of their reach: an allocation planted at the top of the PFU's
// reissue or expireTimeouts — the retry and timeout recovery of a degraded
// run — passes every one of them and is reported here. Planting one in
// each of eleven per-tick functions (EXPERIMENTS.md, "cedarvet — what each
// check has caught"), hotalloc misses ccbus's book, reached only through
// callbacks, and the gates miss those two; neither guard subsumes the
// other, which is why both stay.
package hotalloc

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cedar/internal/lint"
)

// Config declares what "hot" means for one module.
type Config struct {
	// HotPkgs lists module-relative package paths ("internal/sim") whose
	// Tick/Step-reachable code must stay allocation-free. Roots are only
	// taken from these packages, and findings are only reported in them.
	HotPkgs []string
	// Roots lists the function/method names that start a cycle
	// ("Tick", "Step").
	Roots []string
}

// DefaultConfig is the cedar module's hot-path definition: the simulator
// engine and every component ticked by it each cycle.
var DefaultConfig = Config{
	HotPkgs: []string{
		"internal/sim",
		"internal/core",
		"internal/network",
		"internal/gmem",
		"internal/cmem",
		"internal/cache",
		"internal/ccbus",
		"internal/ce",
		"internal/prefetch",
	},
	Roots: []string{"Tick", "Step"},
}

// Analyzer is hotalloc with the cedar hot-path definition.
var Analyzer = New(DefaultConfig)

// New builds a hotalloc analyzer for the given hot-path definition.
func New(cfg Config) *lint.ModuleAnalyzer {
	a := &lint.ModuleAnalyzer{
		Name: "hotalloc",
		Doc:  "flags heap allocations in code reachable from per-cycle Tick/Step roots",
	}
	a.Run = func(pass *lint.ModulePass) error { return run(pass, cfg) }
	return a
}

func relPath(pkg *lint.Package) string {
	if pkg.Path == pkg.Module {
		return ""
	}
	return strings.TrimPrefix(pkg.Path, pkg.Module+"/")
}

func run(pass *lint.ModulePass, cfg Config) error {
	hot := map[string]bool{}
	for _, p := range cfg.HotPkgs {
		hot[p] = true
	}
	rootName := map[string]bool{}
	for _, r := range cfg.Roots {
		rootName[r] = true
	}

	g := pass.Module.CallGraph()

	// Roots: Tick/Step declarations in hot packages, in sorted key order
	// so the reachability attribution below is deterministic.
	var rootKeys []string
	for key, node := range g.Nodes {
		if hot[relPath(node.Pkg)] && rootName[node.Decl.Name.Name] {
			rootKeys = append(rootKeys, key)
		}
	}
	sort.Strings(rootKeys)

	// reachedVia maps every hot function to the first root that reaches
	// it, for the "(reachable from ...)" note in findings.
	reachedVia := map[string]string{}
	for _, root := range rootKeys {
		for key := range g.Reachable([]string{root}) {
			if _, ok := reachedVia[key]; !ok {
				reachedVia[key] = root
			}
		}
	}

	// Deterministic order: nodes sorted by key.
	var keys []string
	for key := range reachedVia {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	for _, key := range keys {
		node := g.Nodes[key]
		if node == nil || !hot[relPath(node.Pkg)] {
			continue
		}
		filename := node.Pkg.Fset.Position(node.Decl.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		checkFunc(pass, node, reachedVia[key])
	}
	return nil
}

// checkFunc walks one hot function body and reports allocating
// constructs. via names the root that makes the function hot.
func checkFunc(pass *lint.ModulePass, node *lint.FuncNode, via string) {
	info := node.Pkg.Info
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "%s in per-cycle code (reachable from %s)", what, via)
	}

	// Pre-pass: collect the x = append(x, ...) self-appends, which are
	// amortised-free once the backing array is warm (the keep = keep[:0]
	// reuse idiom depends on exactly this exemption).
	selfAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(info, call.Fun, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				selfAppend[call] = true
			}
		}
		return true
	})
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "panic") {
				return false // autopsy path: formatting the panic message is fine
			}
			if isBuiltin(info, n.Fun, "new") {
				report(n, "new(...) allocates")
				return true
			}
			if isBuiltin(info, n.Fun, "make") {
				report(n, "make(...) allocates")
				return true
			}
			if isBuiltin(info, n.Fun, "append") && !selfAppend[n] {
				report(n, "append to a fresh destination may grow a new backing array")
				return true
			}
			if pkgName, fn, ok := pkgCall(info, n.Fun); ok && pkgName == "fmt" {
				report(n, "fmt."+fn+" boxes its arguments")
				return true
			}
		case *ast.UnaryExpr:
			if _, isLit := n.X.(*ast.CompositeLit); isLit && n.Op.String() == "&" {
				report(n, "&composite-literal allocates")
				// Still walk the literal's elements for nested closures.
				ast.Inspect(n.X, walk)
				return false
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n, "slice/map composite literal allocates")
			}
		case *ast.FuncLit:
			report(n, "func literal allocates its closure environment")
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isNonConstString(info, n) {
				report(n, "string concatenation allocates")
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// pkgCall resolves fun to (package name, function name) for calls of the
// form pkg.F.
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

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

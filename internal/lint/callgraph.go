package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a conservative intra-module call graph built from
// go/types information alone:
//
//   - A static call or a reference to a named function or a method on a
//     concrete receiver adds an edge to that function. References count
//     because a function passed as a value (a method value, a callback)
//     may be invoked by anything that holds it.
//   - A call through an interface method adds an edge to every module
//     method with the same name and structurally identical signature —
//     the interface-method-set over-approximation. Signatures are
//     compared by fully-qualified type string, so the same module
//     package type-checked in different loader universes (analysis vs.
//     dependency) still matches.
//   - Function literals are not separate nodes: a literal's body belongs
//     to the enclosing declared function, so calls made inside a closure
//     are edges from the function that created the closure. This is the
//     right attribution for reachability ("whose code can run") without
//     having to track where the closure value flows.
//
// Calls through plain function-typed values (not method values resolved
// above) have no callee edges; the callee body was attributed to
// whichever function created it, which is where an allocation- or
// hygiene-finding belongs anyway.
type CallGraph struct {
	// Nodes maps a stable function key (FuncKey) to the declaration that
	// provides its body. Only functions declared in the module with
	// bodies appear.
	Nodes map[string]*FuncNode

	edges map[string]map[string]bool
}

// FuncNode locates one declared function of the module.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
	Func *types.Func
}

// FuncKey returns the stable cross-universe identity of a function: its
// fully qualified name. Two type-checks of the same package (the
// analysis load and the dependency load) yield distinct objects but the
// same key.
func FuncKey(f *types.Func) string {
	return f.Origin().FullName()
}

// sigKey renders a signature as parameter and result types only (fully
// qualified, names dropped), so interface methods match implementations
// across type-checking universes and regardless of parameter naming.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

type methodKey struct {
	name string
	sig  string
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		Nodes: map[string]*FuncNode{},
		edges: map[string]map[string]bool{},
	}

	// Pass 1: register declared functions and index concrete methods by
	// (name, signature) for interface-dispatch resolution.
	methods := map[methodKey][]string{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(obj)
				if fd.Body != nil {
					g.Nodes[key] = &FuncNode{Key: key, Pkg: pkg, Decl: fd, Func: obj}
				}
				if fd.Recv != nil {
					mk := methodKey{fd.Name.Name, sigKey(obj.Type().(*types.Signature))}
					methods[mk] = append(methods[mk], key)
				}
			}
		}
	}

	// Pass 2: edges. Every use of a *types.Func inside a body — called
	// or referenced — is an edge; interface methods fan out to all
	// structurally matching module methods.
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				from := FuncKey(obj)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fobj, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fobj = fobj.Origin()
					sig, ok := fobj.Type().(*types.Signature)
					if !ok {
						return true
					}
					if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
						for _, to := range methods[methodKey{fobj.Name(), sigKey(sig)}] {
							g.addEdge(from, to)
						}
					} else {
						g.addEdge(from, FuncKey(fobj))
					}
					return true
				})
			}
		}
	}
	return g
}

func (g *CallGraph) addEdge(from, to string) {
	set := g.edges[from]
	if set == nil {
		set = map[string]bool{}
		g.edges[from] = set
	}
	set[to] = true
}

// Calls reports whether an edge from → to exists. Only tests call it:
// the analyzers walk the edges themselves, and this is the one way
// TestCallGraph can check a single edge the loader built.
func (g *CallGraph) Calls(from, to string) bool { return g.edges[from][to] }

// Reachable returns the set of function keys reachable from the roots
// (roots included, whether or not they have bodies in the module). The
// traversal visits callees in sorted order so that any caller folding
// over the walk sees a deterministic sequence.
func (g *CallGraph) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		var next []string
		for to := range g.edges[k] {
			if !seen[to] {
				next = append(next, to)
			}
		}
		sort.Strings(next)
		stack = append(stack, next...)
	}
	return seen
}

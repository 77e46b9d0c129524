package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The whole-program layer: a Program aggregates the analyzed packages
// plus their module-internal import closure, and a CallGraph over it
// resolves who can call whom. Resolution is class-hierarchy style (CHA)
// over go/types:
//
//   - static calls and method calls on concrete receivers get one edge,
//     to the generic declaration when the callee is an instantiation;
//   - interface method calls, direct or promoted through an embedded
//     interface, get an edge to the matching method of every named type
//     in the program that implements the interface;
//   - calls through function values (fields, variables, parameters,
//     method values) get an edge to every address-taken function or
//     method with an identical signature; an interface method value
//     takes the address of every implementor's.
//
// Package-level var initializers belong to no declaration: what they
// call or reference is the graph's Inits.
//
// Function literals are inlined into the declaration that lexically
// encloses them: a closure's calls and volatile sites belong to the
// function that built it. That is deliberately conservative — a closure
// handed to a scheduler is reachable as soon as its builder is — and it
// is what lets detflow taint the encoder task bodies through the graph
// builders without tracking closure values through data structures.
//
// The graph is deterministic: nodes are ordered by declaration
// position, edges by call-site position, so analyzer output built on it
// is byte-stable run to run.

// Program is the whole-program view whole-program analyzers run on.
type Program struct {
	Fset *token.FileSet
	// Pkgs holds the analyzed packages sorted by import path: the
	// packages the driver was given plus every module-internal package
	// reachable from them through imports.
	Pkgs []*Package

	cg *CallGraph
}

// NewProgram assembles the whole-program view over the given packages
// plus their module-internal import closure, so call chains cross
// package boundaries even when a single package directory was named on
// the command line. The closure is walked through each package's
// imports, so the program is a function of pkgs alone: whatever else
// their loader has loaded stays out of it.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{}
	seen := make(map[*Package]bool)
	var walk func(p *Package)
	walk = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		prog.Pkgs = append(prog.Pkgs, p)
		for _, imp := range p.Types.Imports() {
			if q := p.loader.pkgs[imp.Path()]; q != nil {
				walk(q)
			}
		}
	}
	for _, p := range pkgs {
		prog.Fset = p.loader.Fset
		walk(p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// EdgeKind classifies how a call site was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a known function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a CHA-resolved interface method call.
	EdgeInterface
	// EdgeDynamic is a call through a function value, resolved to every
	// address-taken function of identical signature.
	EdgeDynamic
)

// Edge is one resolved call: the source position of the call expression
// and the possible callee.
type Edge struct {
	Site   token.Pos
	Kind   EdgeKind
	Callee *Node
}

// Node is one declared function or method with a body. Function
// literals have no nodes of their own; their bodies belong to the
// enclosing declaration.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists the node's resolved call edges in call-site order.
	Out []Edge
}

// Name renders the node the way diagnostics spell functions:
// pkg.Func or pkg.(*Type).Method.
func (n *Node) Name() string { return funcDisplayName(n.Func) }

// funcDisplayName renders a *types.Func as pkg.Name or
// pkg.(*Recv).Name.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + fn.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
		star = "*"
	}
	name := "?"
	if named, okn := t.(*types.Named); okn {
		name = named.Obj().Name()
	}
	return pkg + "(" + star + name + ")." + fn.Name()
}

// CallGraph is the CHA-resolved call graph of a Program.
type CallGraph struct {
	prog  *Program
	nodes map[*types.Func]*Node
	// Nodes lists every declared function with a body, ordered by
	// declaration position (file name, then offset).
	Nodes []*Node
	// Inits lists, in source order, the functions package-level var
	// initializers call or reference.
	Inits []*Node

	addr map[string][]*Node // address-taken functions by sigKey
}

// node returns fn's declaration (an instantiation's generic origin).
func (g *CallGraph) node(fn *types.Func) *Node { return g.nodes[fn.Origin()] }

// abstractIface returns the interface declaring fn, nil for a concrete fn.
func abstractIface(fn *types.Func) *types.Interface {
	var iface *types.Interface
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		iface, _ = recv.Type().Underlying().(*types.Interface)
	}
	return iface
}

// buildCallGraph constructs the graph in two passes: collect the nodes,
// then resolve every call site.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{prog: prog, nodes: make(map[*types.Func]*Node)}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, fd := range funcDecls(f) {
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool {
		a := prog.Fset.Position(g.Nodes[i].Decl.Pos())
		b := prog.Fset.Position(g.Nodes[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	named := programNamedTypes(prog)
	g.addr = addressTakenFuncs(prog, g, named)
	for _, n := range g.Nodes {
		g.resolveEdges(n, named)
		sort.SliceStable(n.Out, func(i, j int) bool { return n.Out[i].Site < n.Out[j].Site })
	}
	g.Inits = initRefs(prog, g)
	return g
}

// initRefs collects the functions package-level var initializers call
// or reference, function literals included.
func initRefs(prog *Program, g *CallGraph) (out []*Node) {
	seen := make(map[*Node]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(nd ast.Node) bool {
						if id, ok := nd.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && g.node(fn) != nil && !seen[g.node(fn)] {
								seen[g.node(fn)] = true
								out = append(out, g.node(fn))
							}
						}
						return true
					})
				}
			}
		}
	}
	return out
}

// programNamedTypes collects every named (non-interface) type declared
// in the program, in deterministic order, for CHA interface resolution.
func programNamedTypes(prog *Program) []*types.Named {
	var out []*types.Named
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, n)
		}
	}
	return out
}

// addressTakenFuncs maps a normalized signature key to every declared
// function or method whose value escapes (referenced outside call
// position) — the conservative target set for calls through function
// values. An interface method value escapes every implementor's method.
func addressTakenFuncs(prog *Program, g *CallGraph, named []*types.Named) map[string][]*Node {
	addr := make(map[string][]*Node)
	seen := make(map[string]map[*Node]bool)
	add := func(key string, n *Node) {
		if seen[key] == nil {
			seen[key] = make(map[*Node]bool)
		}
		if !seen[key][n] {
			seen[key][n] = true
			addr[key] = append(addr[key], n)
		}
	}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			inCall := make(map[ast.Node]bool)
			ast.Inspect(f, func(nd ast.Node) bool {
				switch e := nd.(type) {
				case *ast.CallExpr:
					// The function operand of a call is not a value use;
					// children are visited after the parent, so marking
					// here is seen in time.
					inCall[ast.Unparen(e.Fun)] = true
				case *ast.Ident:
					if inCall[e] {
						return true
					}
					if fn, ok := info.Uses[e].(*types.Func); ok {
						if n := g.node(fn); n != nil {
							if sig, ok := info.TypeOf(e).(*types.Signature); ok {
								add(sigKey(sig), n)
							}
						}
					}
				case *ast.SelectorExpr:
					inCall[e.Sel] = true // decided here, never as an Ident
					if inCall[e] {
						return true
					}
					fn, _ := info.Uses[e.Sel].(*types.Func)
					// A method value's type drops the receiver; key by
					// the expression's type so the call side matches.
					if sig, ok := info.TypeOf(e).(*types.Signature); ok && fn != nil {
						if n := g.node(fn); n != nil {
							add(sigKey(sig), n)
						} else if iface := abstractIface(fn); iface != nil {
							for _, n := range g.implementors(iface, fn.Name(), named) {
								add(sigKey(sig), n)
							}
						}
					}
				}
				return true
			})
		}
	}
	return addr
}

// sigKey normalizes a signature to parameter/result types only (names
// and receivers stripped) with full package paths, so method values and
// plain functions of the same shape share a key.
func sigKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	writeTuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	writeTuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	writeTuple(sig.Results())
	return b.String()
}

// resolveEdges walks one node's body (function literals included) and
// appends an edge per resolvable call site.
func (g *CallGraph) resolveEdges(n *Node, named []*types.Named) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := call.Lparen
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch obj := info.Uses[f].(type) {
			case *types.Func:
				if target := g.node(obj); target != nil {
					n.Out = append(n.Out, Edge{Site: site, Kind: EdgeStatic, Callee: target})
				}
				return true
			case *types.Builtin, *types.TypeName:
				return true // builtin or conversion, never an edge
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[f]; sel != nil && sel.Kind() == types.MethodVal {
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					g.addInterfaceEdges(n, site, iface, f.Sel.Name, named)
					return true
				}
			}
			if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
				if target := g.node(fn); target != nil {
					n.Out = append(n.Out, Edge{Site: site, Kind: EdgeStatic, Callee: target})
				} else if iface := abstractIface(fn); iface != nil { // promoted
					g.addInterfaceEdges(n, site, iface, f.Sel.Name, named)
				}
				return true
			}
			if _, ok := info.Uses[f.Sel].(*types.TypeName); ok {
				return true // conversion through a qualified type
			}
		case *ast.FuncLit:
			return true // immediately-invoked literal: body already inlined
		}
		// Call through a function value: conservative signature match.
		if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
			for _, target := range g.addr[sigKey(sig)] {
				n.Out = append(n.Out, Edge{Site: site, Kind: EdgeDynamic, Callee: target})
			}
		}
		return true
	})
}

// addInterfaceEdges adds CHA edges for a call of iface method name: one
// per named program type implementing the interface.
func (g *CallGraph) addInterfaceEdges(n *Node, site token.Pos, iface *types.Interface, name string, named []*types.Named) {
	for _, target := range g.implementors(iface, name, named) {
		n.Out = append(n.Out, Edge{Site: site, Kind: EdgeInterface, Callee: target})
	}
}

// implementors returns the method name of every named program type
// implementing iface.
func (g *CallGraph) implementors(iface *types.Interface, name string, named []*types.Named) []*Node {
	var out []*Node
	for _, t := range named {
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(t.Obj().Pkg(), name)
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok && g.node(fn) != nil {
			out = append(out, g.node(fn))
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Reachability with chains.

// chainStep records how a node was first reached during BFS.
type chainStep struct {
	prev *Node
}

// reachFrom runs a breadth-first reachability sweep from roots (in the
// given order) and returns, per reached node, the step that first
// discovered it. Roots map to a zero step. The BFS order is
// deterministic: roots in configuration order, edges in site order.
func (g *CallGraph) reachFrom(roots []*Node) map[*Node]chainStep {
	reached := make(map[*Node]chainStep)
	var queue []*Node
	for _, r := range roots {
		if _, ok := reached[r]; ok {
			continue
		}
		reached[r] = chainStep{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := reached[e.Callee]; ok {
				continue
			}
			reached[e.Callee] = chainStep{prev: n}
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// chainTo reconstructs the root→node call chain recorded by reachFrom:
// one hop per function, positioned at its declaration. The last hop is
// the function containing the sink, which is the only hop a
// //lint:ignore directive may suppress through.
func (g *CallGraph) chainTo(reached map[*Node]chainStep, n *Node) []ChainHop {
	var rev []*Node
	for cur := n; ; {
		step, ok := reached[cur]
		if !ok {
			return nil
		}
		rev = append(rev, cur)
		if step.prev == nil {
			break
		}
		cur = step.prev
	}
	hops := make([]ChainHop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		hops = append(hops, g.hop(rev[i]))
	}
	return hops
}

// hop positions one function as a chain hop, at its declaration.
func (g *CallGraph) hop(n *Node) ChainHop {
	pos := g.prog.Fset.Position(n.Decl.Pos())
	return ChainHop{Func: n.Name(), File: pos.Filename, Line: pos.Line, Col: pos.Column}
}

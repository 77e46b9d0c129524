package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardPureConfig names what counts as a scheduler task body.
type ShardPureConfig struct {
	// TaskIfaces are interface methods, "import/path.Iface.Method":
	// the method body of every program type implementing the interface
	// is a task body (sched.Graph.Run).
	TaskIfaces []string
	// SubmitFuncs are functions or methods, "import/path.Func" or
	// "import/path.Type.Method", whose function-literal arguments are
	// task bodies (encoders' graph.add run closures).
	SubmitFuncs []string
}

// NewShardPure builds the shardpure analyzer: closures and methods the
// scheduler may run concurrently must write shared state only through
// an element index — their own shard-indexed result slot. That is the
// discipline that makes PR 6's schedule-invariance hold by
// construction: res[i] = r is safe for distinct i no matter which
// worker runs what, while res = append(res, r), done++ or st.field = v
// on captured state races and reintroduces schedule-dependent bytes.
//
// Flagged inside a task body, when the target is declared outside it
// (captured variable, receiver state, package-level var):
//
//   - plain stores with no index expression on the path (x = v,
//     st.field = v);
//   - compound assignments (x += v) and ++/-- anywhere, indexed or
//     not — read-modify-write is order-dependent even on elements;
//
// Plain element stores (res[i] = v, pic.segs[slot].data = v) pass.
// Mutex-guarded aggregation is a deliberate design exception: justify
// it with //lint:ignore shardpure <reason> at the site or on the
// enclosing function.
func NewShardPure(cfg ShardPureConfig) *Analyzer {
	az := &Analyzer{
		Name: "shardpure",
		Doc:  "scheduler task bodies may write shared state only through their own indexed slot",
	}
	az.RunProgram = func(pp *ProgramPass) {
		g := pp.Prog.CallGraph()
		type ifaceMethod struct {
			iface  *types.Interface
			method string
		}
		var ifaces []ifaceMethod
		for _, spec := range cfg.TaskIfaces {
			if iface, m := lookupIfaceMethod(pp.Prog, spec); iface != nil {
				ifaces = append(ifaces, ifaceMethod{iface, m})
			}
		}
		submit := make(map[string]bool, len(cfg.SubmitFuncs))
		for _, s := range cfg.SubmitFuncs {
			submit[s] = true
		}
		for _, n := range g.Nodes {
			info := n.Pkg.Info
			sig := n.Func.Type().(*types.Signature)
			// Task-interface method bodies: shared state is the
			// receiver and package-level vars.
			if sig.Recv() != nil {
				recv := sig.Recv().Type()
				for _, im := range ifaces {
					if n.Func.Name() != im.method {
						continue
					}
					if !types.Implements(recv, im.iface) &&
						!types.Implements(types.NewPointer(recv), im.iface) {
						continue
					}
					recvObj := recvVarOf(n)
					checkTaskBody(pp, n, n.Decl.Body, func(obj types.Object) bool {
						if obj == recvObj && recvObj != nil {
							return true
						}
						return isPkgLevelVar(obj)
					})
					break
				}
			}
			// Function literals handed to submit functions: shared
			// state is anything declared outside the literal.
			ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || !submit[funcKey(fn)] {
					return true
				}
				for _, arg := range call.Args {
					lit, isLit := ast.Unparen(arg).(*ast.FuncLit)
					if !isLit {
						continue
					}
					checkTaskBody(pp, n, lit.Body, func(obj types.Object) bool {
						if isPkgLevelVar(obj) {
							return true
						}
						return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
					})
				}
				return true
			})
		}
	}
	return az
}

// funcKey renders a function or method the way ShardPureConfig spells
// it: "pkg/path.Func" or "pkg/path.Type.Method".
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// recvVarOf returns the receiver variable object of a method node, or
// nil for unnamed receivers.
func recvVarOf(n *Node) types.Object {
	recv := n.Decl.Recv
	if recv == nil || len(recv.List) == 0 || len(recv.List[0].Names) == 0 {
		return nil
	}
	return n.Pkg.Info.Defs[recv.List[0].Names[0]]
}

// isPkgLevelVar reports whether obj is a package-level variable.
func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkTaskBody reports impure writes in one task body. shared decides
// whether a root object is outside the body (and thus shared with
// other tasks); the enclosing function n provides the suppression hop.
func checkTaskBody(pp *ProgramPass, n *Node, body ast.Node, shared func(types.Object) bool) {
	info := n.Pkg.Info
	pos := pp.Prog.Fset.Position(n.Decl.Pos())
	hop := []ChainHop{{Func: n.Name(), File: pos.Filename, Line: pos.Line, Col: pos.Column}}
	sharedRoot := func(e ast.Expr) (string, bool) {
		id := rootIdent(e)
		if id == nil || id.Name == "_" {
			return "", false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return "", false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return "", false
		}
		if !shared(obj) {
			return "", false
		}
		return id.Name, true
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				name, isShared := sharedRoot(lhs)
				if !isShared {
					continue
				}
				if s.Tok != token.ASSIGN {
					pp.ReportfChain(lhs.Pos(), hop,
						"task body read-modify-writes shared %q (%s); accumulate into the task's own slot and reduce after the graph completes",
						name, s.Tok)
					continue
				}
				if !hasIndexOnPath(lhs) {
					pp.ReportfChain(lhs.Pos(), hop,
						"task body writes shared %q without an element index; a task may only fill its own shard-indexed slot",
						name)
				}
			}
		case *ast.IncDecStmt:
			if name, isShared := sharedRoot(s.X); isShared {
				pp.ReportfChain(s.X.Pos(), hop,
					"task body increments shared %q; counters belong in per-shard slots reduced after the graph completes",
					name)
			}
		}
		return true
	})
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlowConfig names the deterministic roots whose whole call trees
// must be free of volatile sources, the packages in which reachable
// volatile sites are reported, and the packages in which clock and
// host-environment reads are findings even when no root reaches them.
type DetFlowConfig struct {
	// Funcs are package-level roots, "import/path.Func".
	Funcs []string
	// Methods are method roots, "import/path.Type.Method" (the receiver
	// type's name, pointer or value receiver).
	Methods []string
	// IfaceImpls name interface methods, "import/path.Iface.Method":
	// every program type implementing the interface contributes its
	// method as a root. This is how scheduler task bodies are tainted —
	// anything runnable by the pool must be deterministic.
	IfaceImpls []string
	// SinkPaths are the import-path prefixes volatile sites are
	// reported in (the deterministic core). Reachable sites in other
	// packages — the serving and telemetry layers, which own wall-clock
	// legitimately — are not findings.
	SinkPaths []string

	// clockPaths and envPaths scope the sites no root reaches: a
	// wall-clock read is a finding anywhere under clockPaths (the
	// cell-assembly and table paths), a host-environment read anywhere
	// under envPaths, package-level var initializers included.
	// Randomness and order-dependent map ranges are findings anywhere.
	clockPaths []string
	envPaths   []string
}

// volKind classifies a volatile site by its source.
type volKind uint8

const (
	volClock volKind = iota
	volRand
	volEnv
	volMap
	volGo // goroutine-captured write: only a finding when reachable
)

// volFix is the remedy an unreached site's diagnostic suggests, by kind.
var volFix = [...]string{
	volClock: "report modeled cycles (harness.cycleMS) or justify with //lint:ignore detflow on the enclosing function",
	volRand:  "derive values from the deterministic hash generators (internal/video) so output is host- and release-independent",
	volEnv:   "take the value as explicit configuration from the cmd/ layer instead",
	volMap:   "collect the keys, sort them, and range over the slice",
}

// NewDetFlow builds the detflow analyzer: whole-program determinism
// taint. Every configured root is a function whose result must be
// byte-reproducible; detflow walks the call graph from the roots and
// reports any reachable volatile source — wall-clock reads, randomness,
// host-environment reads, map iteration with order-dependent effects,
// goroutine-captured writes — with the root→sink call chain attached
// (`vclint -why` prints it). A leak three calls deep in a helper
// package is found even though the helper itself is not configured
// anywhere.
//
// A site no root reaches is still a finding inside its source's own
// scope (see DetFlowConfig): such a finding carries its enclosing
// function as a one-hop chain.
//
// Suppression is chain-aware: //lint:ignore detflow <reason> on (or
// above) the declaration of the function containing the site silences
// every finding inside that function, but directives on intermediate
// callers or roots never suppress — a justified exemption must sit next
// to the volatile code it justifies.
func NewDetFlow(cfg DetFlowConfig) *Analyzer {
	sinks := pathScope{name: "detflow", paths: cfg.SinkPaths}
	// The fixture packages testdata/detflow/clock and .../env opt into
	// the per-source scopes; the root fixture package stays outside.
	clock := pathScope{name: "detflow/clock", paths: cfg.clockPaths}
	env := pathScope{name: "detflow/env", paths: cfg.envPaths}
	local := func(k volKind, pkgPath string) bool {
		switch k {
		case volClock:
			return clock.in(pkgPath)
		case volEnv:
			return env.in(pkgPath)
		case volRand, volMap:
			return true
		}
		return false
	}
	az := &Analyzer{
		Name: "detflow",
		Doc:  "forbid volatile sources (clock, rand, env, map order, racy writes) in deterministic code and reachable from deterministic roots",
	}
	az.RunProgram = func(pp *ProgramPass) {
		g := pp.Prog.CallGraph()
		reached := g.reachFrom(detflowRoots(pp.Prog, g, cfg))
		for _, n := range g.Nodes {
			var chain []ChainHop
			if sinks.in(n.Pkg.Path) {
				chain = g.chainTo(reached, n)
			}
			for _, site := range volatileSites(n.Pkg.Info, n.Decl.Body) {
				switch {
				case len(chain) > 0:
					pp.ReportfChain(site.pos, chain,
						"%s reachable from deterministic root %s (%d hops); break the call path or justify with //lint:ignore detflow on the enclosing function",
						site.what, chain[0].Func, len(chain))
				case local(site.kind, n.Pkg.Path):
					pp.ReportfChain(site.pos, []ChainHop{g.hop(n)}, "%s in deterministic code; %s", site.what, volFix[site.kind])
				}
			}
		}
		// Package-level var initializers run with no enclosing function
		// and so carry no chain.
		for _, pkg := range pp.Prog.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						continue
					}
					for _, site := range volatileSites(pkg.Info, gd) {
						if local(site.kind, pkg.Path) {
							pp.ReportfChain(site.pos, nil, "%s in deterministic code; %s", site.what, volFix[site.kind])
						}
					}
				}
			}
		}
	}
	return az
}

// detflowRoots resolves the configured root names against the call
// graph, in node (declaration) order so BFS tie-breaks are stable.
func detflowRoots(prog *Program, g *CallGraph, cfg DetFlowConfig) []*Node {
	funcs := make(map[string]bool, len(cfg.Funcs))
	for _, s := range cfg.Funcs {
		funcs[s] = true
	}
	methods := make(map[string]bool, len(cfg.Methods))
	for _, s := range cfg.Methods {
		methods[s] = true
	}
	type ifaceMethod struct {
		iface  *types.Interface
		method string
	}
	var ifaces []ifaceMethod
	for _, spec := range cfg.IfaceImpls {
		if iface, m := lookupIfaceMethod(prog, spec); iface != nil {
			ifaces = append(ifaces, ifaceMethod{iface, m})
		}
	}
	var roots []*Node
	for _, n := range g.Nodes {
		fn := n.Func
		if fn.Pkg() == nil {
			continue
		}
		sig := fn.Type().(*types.Signature)
		match := false
		if sig.Recv() == nil {
			match = funcs[fn.Pkg().Path()+"."+fn.Name()]
		} else {
			recv := sig.Recv().Type()
			t := recv
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				match = methods[fn.Pkg().Path()+"."+named.Obj().Name()+"."+fn.Name()]
			}
			if !match {
				for _, im := range ifaces {
					if fn.Name() != im.method {
						continue
					}
					if types.Implements(recv, im.iface) ||
						types.Implements(types.NewPointer(recv), im.iface) {
						match = true
						break
					}
				}
			}
		}
		// Fixture convention: DetRoot* functions in detflow testdata
		// packages are roots, so fixtures need no repo-path config.
		if !match && strings.Contains(n.Pkg.Path, "testdata/detflow") &&
			strings.HasPrefix(fn.Name(), "DetRoot") {
			match = true
		}
		if match {
			roots = append(roots, n)
		}
	}
	return roots
}

// lookupIfaceMethod resolves "import/path.Iface.Method" to the
// interface type and method name, or (nil, "") when the program does
// not contain the package or type.
func lookupIfaceMethod(prog *Program, spec string) (*types.Interface, string) {
	i := strings.LastIndex(spec, ".")
	if i < 0 {
		return nil, ""
	}
	method := spec[i+1:]
	rest := spec[:i]
	j := strings.LastIndex(rest, ".")
	if j < 0 {
		return nil, ""
	}
	pkgPath, typeName := rest[:j], rest[j+1:]
	for _, pkg := range prog.Pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return nil, ""
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, ""
		}
		return iface, method
	}
	return nil, ""
}

// volatileRandPkgs are the packages any call into which is a
// randomness source. Even a seeded math/rand is not reproducible across
// Go releases (the generator is outside the compatibility promise).
var volatileRandPkgs = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "crypto/rand": true,
}

// hostEnvReads maps package path → function names whose return values
// depend on the host environment.
var hostEnvReads = map[string]map[string]bool{
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true,
		"Hostname": true, "Getpid": true, "Getppid": true,
		"Getwd": true, "UserHomeDir": true, "UserCacheDir": true,
		"UserConfigDir": true,
	},
	"runtime": {"NumCPU": true, "GOMAXPROCS": true},
}

// volSite is one volatile source inside a declaration.
type volSite struct {
	pos  token.Pos
	kind volKind
	what string
}

// volatileSites scans one declaration — a function body or a var
// declaration, function literals included (they execute with the
// enclosing declaration's reachability) — for volatile sources, in
// position order.
func volatileSites(info *types.Info, decl ast.Node) []volSite {
	var out []volSite
	ast.Inspect(decl, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case pkgFuncIn(fn, "time", "Now", "Since", "Until"):
				out = append(out, volSite{s.Pos(), volClock, "wall-clock time." + fn.Name()})
			case volatileRandPkgs[fn.Pkg().Path()]:
				out = append(out, volSite{s.Pos(), volRand, "randomness " + fn.Pkg().Path() + "." + fn.Name()})
			case hostEnvReads[fn.Pkg().Path()][fn.Name()]:
				out = append(out, volSite{s.Pos(), volEnv, "host-dependent " + fn.Pkg().Name() + "." + fn.Name()})
			}
		case *ast.RangeStmt:
			t := info.TypeOf(s.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			over := "map iteration over " + types.ExprString(s.X)
			appends, fieldAppend, sink := mapRangeEffects(info, s.Body)
			switch {
			case sink != "":
				out = append(out, volSite{s.Pos(), volMap, over + " writes ordered output via " + sink})
			case fieldAppend:
				out = append(out, volSite{s.Pos(), volMap, over + " appends to a struct field in randomized order"})
			case len(appends) > 0 && !sortedAfter(info, decl, appends):
				out = append(out, volSite{s.Pos(), volMap, over + " appends to a slice in randomized order and the slice is never sorted"})
			}
		case *ast.GoStmt:
			lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit)
			if !ok || litLocks(lit) {
				return true
			}
			for _, w := range capturedWrites(info, lit) {
				out = append(out, volSite{w.pos, volGo, "goroutine-captured write to " + w.name})
			}
		}
		return true
	})
	return out
}

// sinkMethods are method names whose call inside a map-range body means
// the iteration order reaches rendered output or a hash state.
var sinkMethods = map[string]bool{
	"AddRow": true, "Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Sum": true, "Sum32": true, "Sum64": true,
}

// fmtSinks are fmt functions that emit to a writer (pure Sprintf-style
// formatting is covered through the append/assignment paths instead).
var fmtSinks = []string{"Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println"}

// mapRangeEffects scans a range body for order-dependent effects:
// slice-append targets (by object), appends to struct fields, and
// output-sink calls. Commutative bodies (counter merges, set unions)
// have none.
func mapRangeEffects(info *types.Info, body *ast.BlockStmt) (appends map[types.Object]bool, fieldAppend bool, sink string) {
	appends = make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(s.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(s.Lhs[i]).(type) {
				case *ast.Ident:
					if obj := info.ObjectOf(lhs); obj != nil {
						appends[obj] = true
					}
				case *ast.SelectorExpr:
					fieldAppend = true
				}
			}
		case *ast.CallExpr:
			if name := sinkCallName(info, s); name != "" {
				sink = name
			}
		}
		return true
	})
	return appends, fieldAppend, sink
}

// isBuiltinAppend reports whether a call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sinkCallName classifies a call as an output sink, returning a
// human-readable name ("" if not a sink).
func sinkCallName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	if pkgFuncIn(fn, "fmt", fmtSinks...) {
		return "fmt." + fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && sinkMethods[fn.Name()] {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + "." + fn.Name()
	}
	return ""
}

// sortedAfter reports whether the enclosing declaration passes any of
// the appended slices to a sort.* or slices.Sort* call, which restores
// a canonical order. The check is flow-insensitive on purpose: a sort
// anywhere in the declaration is accepted, and vclint's fixture suite
// pins the accepted shapes.
func sortedAfter(info *types.Info, decl ast.Node, targets map[types.Object]bool) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(info, call)
		isSort := pkgFuncIn(fn, "sort", "Sort", "Stable", "Slice", "SliceStable",
			"Strings", "Ints", "Float64s") ||
			pkgFuncIn(fn, "slices", "Sort", "SortFunc", "SortStableFunc")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && targets[info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// litLocks reports whether a function literal's body takes any mutex
// (a call of a method named Lock): its captured writes are then treated
// as synchronized and left to lockheld/lockorder rather than flagged as
// racy ordering.
func litLocks(lit *ast.FuncLit) bool {
	locked := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
				locked = true
			}
		}
		return !locked
	})
	return locked
}

// capturedWrite is one unsynchronized write inside a go-statement
// literal to state declared outside it.
type capturedWrite struct {
	pos  token.Pos
	name string
}

// capturedWrites finds plain (non-element) stores and compound updates
// inside lit whose target variable is declared outside the literal.
// Element stores (an index expression on the path) are the shard-slot
// pattern and are shardpure's concern, not an ordering hazard per se.
func capturedWrites(info *types.Info, lit *ast.FuncLit) []capturedWrite {
	var out []capturedWrite
	captured := func(e ast.Expr) (string, bool) {
		if hasIndexOnPath(e) {
			return "", false
		}
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
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return "", false // declared inside the literal
		}
		return id.Name, true
	}
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				if name, ok := captured(lhs); ok {
					out = append(out, capturedWrite{lhs.Pos(), name})
				}
			}
		case *ast.IncDecStmt:
			if name, ok := captured(s.X); ok {
				out = append(out, capturedWrite{s.X.Pos(), name})
			}
		}
		return true
	})
	return out
}

// hasIndexOnPath reports whether an lvalue path contains an index
// expression (a[i], a[i].f, ...), i.e. the store targets an element
// slot rather than a whole variable or field.
func hasIndexOnPath(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

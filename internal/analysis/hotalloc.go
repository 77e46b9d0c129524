package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewHotAlloc builds the hotalloc analyzer: the per-pixel/per-block
// kernels (codec transforms, motion search, intra prediction,
// quantization) and the per-access/per-op simulator loops (cache,
// pipeline) are the measured hot paths — an allocation inside their
// loops both distorts the instruction counts the experiments report and
// dominates runtime. Inside any loop in a scoped package the analyzer
// flags: fmt.* calls (formatting allocates and boxes every operand),
// string concatenation (each + builds a fresh string), and explicit
// conversions to interface types (boxing). Error construction belongs
// before the loop (validate, then iterate) or in package-level sentinel
// errors.
func NewHotAlloc(paths []string) *Analyzer {
	scope := pathScope{name: "hotalloc", paths: paths}
	az := &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid fmt calls, string concatenation, and interface boxing inside kernel loops",
	}
	az.Run = func(pass *Pass) {
		info := pass.TypesInfo()
		for _, f := range pass.Files() {
			if !scope.inFile(pass.Pkg.Path, pass.Fset.Position(f.Pos()).Filename) {
				continue
			}
			for _, fd := range funcDecls(f) {
				scanLoops(pass, info, fd.Body, false)
			}
		}
	}
	return az
}

// scanLoops walks a subtree tracking whether evaluation happens once
// per loop iteration; loop conditions and post statements count as
// inside the loop.
func scanLoops(pass *Pass, info *types.Info, n ast.Node, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.ForStmt:
			if s.Init != nil {
				scanLoops(pass, info, s.Init, inLoop)
			}
			if s.Cond != nil {
				scanLoops(pass, info, s.Cond, true)
			}
			if s.Post != nil {
				scanLoops(pass, info, s.Post, true)
			}
			scanLoops(pass, info, s.Body, true)
			return false
		case *ast.RangeStmt:
			scanLoops(pass, info, s.X, inLoop)
			scanLoops(pass, info, s.Body, true)
			return false
		}
		if inLoop {
			flagHotAlloc(pass, info, m)
		}
		return true
	})
}

// flagHotAlloc reports one node if it is a loop-allocating construct.
func flagHotAlloc(pass *Pass, info *types.Info, n ast.Node) {
	switch e := n.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(info, e); pkgFuncIn(fn, "fmt") {
			pass.Reportf(e.Pos(),
				"fmt.%s inside a kernel loop allocates and boxes its operands; hoist it out of the loop or use a sentinel error",
				fn.Name())
			return
		}
		// Explicit conversion to an interface type boxes the operand.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				pass.Reportf(e.Pos(),
					"conversion to %s inside a kernel loop boxes the value on the heap; keep kernel data concrete",
					types.TypeString(tv.Type, types.RelativeTo(pass.Pkg.Types)))
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isStringType(info.TypeOf(e)) {
			pass.Reportf(e.Pos(),
				"string concatenation inside a kernel loop allocates per iteration; build strings outside the loop or use a preallocated buffer")
		}
	case *ast.AssignStmt:
		if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(info.TypeOf(e.Lhs[0])) {
			pass.Reportf(e.Pos(),
				"string += inside a kernel loop reallocates the whole string per iteration; use a preallocated buffer")
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

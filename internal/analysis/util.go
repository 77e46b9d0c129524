package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathScope restricts an analyzer to configured import-path prefixes.
// A package is additionally in scope when it sits under a testdata
// directory segment named after the analyzer ("testdata/lockheld/..."),
// so the fixture trees exercise the exact analyzer instances that
// cmd/vclint ships, end to end, without widening the repo config.
type pathScope struct {
	name  string
	paths []string
}

// in reports whether a package path falls inside the scope.
func (s pathScope) in(pkgPath string) bool {
	for _, p := range s.paths {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return strings.Contains(pkgPath, "testdata/"+s.name)
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil for builtins, conversions, and indirect calls through
// variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFuncIn reports whether fn is a package-level function of pkgPath
// whose name appears in names; an empty names set matches any function
// of the package.
func pkgFuncIn(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath ||
		fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// rootIdent walks to the base identifier of a selector chain
// (cellCache.lru.Back → cellCache); nil when the base is not a plain
// identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// funcDecls yields every function declaration with a body in the file.
func funcDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

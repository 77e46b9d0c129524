package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewLockHeld builds the lockheld analyzer: every field that shares a
// struct with a sync.Mutex/RWMutex (an embedded mutex, or one named
// mu/mutex/lock) is treated as guarded by that mutex — the convention
// used by the service store and the experiment registry. An
// access to a guarded field is legal only in a function that locks the
// same struct (a Lock/RLock call on it appears in the function — the
// mu.Lock()/defer mu.Unlock() dominance idiom, checked
// flow-insensitively) or in a helper that declares it runs under the
// lock by the *Locked naming convention (sched.takeLocked).
//
// The scope covers the packages whose caches are hit concurrently by
// the engine's worker pool; fixture packages opt in via the
// testdata/lockheld path rule.
func NewLockHeld(paths []string) *Analyzer {
	scope := pathScope{name: "lockheld", paths: paths}
	az := &Analyzer{
		Name: "lockheld",
		Doc:  "require mutex-guarded struct fields to be accessed with the lock held",
	}
	az.Run = func(pass *Pass) {
		if !scope.in(pass.Pkg.Path) {
			return
		}
		info := pass.TypesInfo()
		vars, named := guardedDecls(pass, info)
		if len(vars) == 0 && len(named) == 0 {
			return
		}
		for _, f := range pass.Files() {
			for _, fd := range funcDecls(f) {
				checkLockDiscipline(pass, info, fd, vars, named)
			}
		}
	}
	return az
}

// guardInfo describes one mutex-carrying struct: which fields are
// guarded and which are the mutexes themselves.
type guardInfo struct {
	fields map[string]bool
	mutex  map[string]bool
}

// guardedStruct inspects a type; non-nil when it is a struct carrying a
// sync mutex.
func guardedStruct(t types.Type) *guardInfo {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	gi := &guardInfo{fields: make(map[string]bool), mutex: make(map[string]bool)}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isSyncMutex(f.Type()) && (f.Embedded() || isMutexName(f.Name())) {
			gi.mutex[f.Name()] = true
		} else {
			gi.fields[f.Name()] = true
		}
	}
	if len(gi.mutex) == 0 {
		return nil
	}
	return gi
}

func isSyncMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func isMutexName(name string) bool {
	switch strings.ToLower(name) {
	case "mu", "mutex", "lock":
		return true
	}
	return false
}

// guardedDecls collects the package's guarded roots: package-level vars
// of mutex-carrying struct type (anonymous structs included — the cache
// idiom) and named struct types whose values are guarded wherever they
// flow (receivers, locals).
func guardedDecls(pass *Pass, info *types.Info) (map[types.Object]*guardInfo, map[*types.Named]*guardInfo) {
	vars := make(map[types.Object]*guardInfo)
	named := make(map[*types.Named]*guardInfo)
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range s.Names {
						obj := info.Defs[name]
						if obj == nil {
							continue
						}
						if gi := guardedStruct(obj.Type()); gi != nil {
							vars[obj] = gi
						}
					}
				case *ast.TypeSpec:
					obj := info.Defs[s.Name]
					if obj == nil {
						continue
					}
					if n, ok := obj.Type().(*types.Named); ok {
						if gi := guardedStruct(n); gi != nil {
							named[n] = gi
						}
					}
				}
			}
		}
	}
	return vars, named
}

// guardFor resolves the guard info for a selector base object, if the
// object is a guarded root.
func guardFor(obj types.Object, vars map[types.Object]*guardInfo, named map[*types.Named]*guardInfo) *guardInfo {
	if obj == nil {
		return nil
	}
	if gi, ok := vars[obj]; ok {
		return gi
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if gi, ok := named[n]; ok {
			return gi
		}
	}
	return nil
}

// checkLockDiscipline verifies one function: guarded field accesses
// require a Lock/RLock on the same root in the function body, or the
// *Locked naming convention.
func checkLockDiscipline(pass *Pass, info *types.Info, fd *ast.FuncDecl,
	vars map[types.Object]*guardInfo, named map[*types.Named]*guardInfo) {

	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	// Pass 1: which guarded roots does this function lock?
	locked := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if id := rootIdent(sel.X); id != nil {
				if obj := info.ObjectOf(id); obj != nil && guardFor(obj, vars, named) != nil {
					locked[obj] = true
				}
			}
		}
		return true
	})
	// Pass 2: flag guarded field accesses on unlocked roots.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		id := rootIdent(sel.X)
		if id == nil {
			return true
		}
		obj := info.ObjectOf(id)
		gi := guardFor(obj, vars, named)
		if gi == nil || locked[obj] {
			return true
		}
		field := sel.Sel.Name
		if !gi.fields[field] || gi.mutex[field] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s.%s is guarded by the struct's mutex but %s neither locks %s nor is named *Locked",
			id.Name, field, fd.Name.Name, id.Name)
		return true
	})
}

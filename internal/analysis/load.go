package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("vcprof/internal/harness").
	Path string
	// Dir is the directory the files were read from, as derived from
	// the pattern that selected the package (so diagnostics echo the
	// caller's own path style).
	Dir string
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the type-checker results.
	Types *types.Package
	Info  *types.Info

	fset   *token.FileSet // the loader's FileSet, for position lookup
	loader *Loader        // the loader that produced the package, for closure walks
}

// Loader loads module packages from source and type-checks them with
// the standard library's type checker. Module-internal imports resolve
// recursively through the loader itself; standard-library imports go
// through go/importer's source importer, so no compiled export data,
// GOPATH layout, or golang.org/x/tools dependency is needed.
//
// Test files (_test.go) are never loaded: vclint's invariants are about
// shipped measurement paths, so a test may, say, draw from math/rand.
// Files a build constraint excludes on the host platform
// (a _GOARCH.go suffix, a //go:build line) are skipped as the compiler
// skips them, so a package with per-platform twins — internal/codec's
// kernels beside their _other.go files — is checked as the one package
// this host builds.
type Loader struct {
	// Root is the module root (the directory containing go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// Fset positions every loaded file.
	Fset *token.FileSet

	base    string // directory patterns are resolved against
	baseAbs string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	inProg  map[string]bool     // import-cycle guard
}

// NewLoader returns a Loader whose patterns resolve relative to dir.
// The module root is discovered by walking up from dir to go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  mod,
		Fset:    fset,
		base:    dir,
		baseAbs: abs,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		inProg:  make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Load resolves patterns ("./...", "./internal/harness", "dir/...") to
// package directories, then parses and type-checks each. Results come
// back sorted by import path. Directories named testdata, vendor, or
// starting with "." or "_" are skipped by wildcard patterns but can be
// targeted explicitly — that is how fixture packages are linted.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand turns patterns into a deduplicated list of package dirs.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		walk := false
		if pat == "..." {
			pat, walk = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, walk = rest, true
			if pat == "" {
				pat = "."
			}
		}
		start := pat
		if !filepath.IsAbs(start) {
			start = filepath.Join(l.base, pat)
		}
		info, err := os.Stat(start)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q: not a directory", pat)
		}
		if !walk {
			if !hasGoFiles(start) {
				return nil, fmt.Errorf("analysis: no Go files in %s", pat)
			}
			add(start)
			continue
		}
		err = filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != start && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// skipDir reports whether wildcard walks descend into a directory.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	n := e.Name()
	return !e.IsDir() && strings.HasSuffix(n, ".go") &&
		!strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") &&
		!strings.HasPrefix(n, "_")
}

// loadDir loads the package in dir, reusing the cache when the same
// package was already loaded via an import edge.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.dirImportPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.loadPath(path, dir)
}

// dirImportPath maps a directory inside the module to its import path.
func (l *Loader) dirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.Module)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// displayDir normalizes a package directory for diagnostics: relative
// to the loader's base directory when the package is beneath it, so
// file:line output is stable no matter whether a package was first
// reached by a pattern walk or an import edge.
func (l *Loader) displayDir(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(l.baseAbs, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	return rel
}

// loadPath parses and type-checks one package.
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if l.inProg[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.inProg[path] = true
	defer delete(l.inProg, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	disp := l.displayDir(dir)
	var files []*ast.File
	for _, e := range ents {
		if !isSourceFile(e) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(disp, e.Name()), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, fset: l.Fset, loader: l}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths recurse into
// the loader; everything else is resolved from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		if pkg, ok := l.pkgs[path]; ok {
			return pkg.Types, nil
		}
		rel := strings.TrimPrefix(path, l.Module)
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
		pkg, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

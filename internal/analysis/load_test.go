package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLoadModuleTree type-checks the whole module with the stdlib-only
// loader — the strongest check that the custom importer chain
// (module-internal recursion + GOROOT source importer) resolves every
// dependency the codebase actually has. The load must hold every
// package directory a walk of the module finds, the mains of cmd/ and
// bench/ among them: the orphan contract is only as good as this load.
func TestLoadModuleTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := sharedLoader(t)
	if loader.Module != "vcprof" {
		t.Fatalf("module = %q, want vcprof", loader.Module)
	}
	pkgs, err := loader.Load("../../...")
	if err != nil {
		t.Fatal(err)
	}
	var walked []string
	err = filepath.WalkDir(loader.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != loader.Root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			rel, _ := filepath.Rel(loader.Root, path)
			walked = append(walked, strings.TrimSuffix("vcprof/"+filepath.ToSlash(rel), "/."))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var loaded, mains []string
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
			t.Errorf("package %s loaded without types or syntax", pkg.Path)
		}
		loaded = append(loaded, pkg.Path)
		if pkg.Types.Name() == "main" {
			mains = append(mains, pkg.Path)
		}
	}
	slices.Sort(walked)
	if !slices.Equal(loaded, walked) {
		t.Errorf("loaded %d packages %v\nwalk found %d %v", len(loaded), loaded, len(walked), walked)
	}
	cmds, _ := filepath.Glob(filepath.Join(loader.Root, "cmd", "*"))
	if !slices.Contains(mains, "vcprof/bench") || len(mains) != len(cmds)+1 {
		t.Errorf("mains = %v, want vcprof/bench and the %d commands under cmd/", mains, len(cmds))
	}
}

// TestLoadSkipsTestdataButAllowsExplicit: wildcard patterns must not
// pick up fixture trees, explicit patterns must.
func TestLoadSkipsTestdataButAllowsExplicit(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("./... loaded fixture package %s", pkg.Path)
		}
	}
	expl, err := loader.Load("./testdata/clean")
	if err != nil {
		t.Fatal(err)
	}
	if len(expl) != 1 || !strings.HasSuffix(expl[0].Path, "internal/analysis/testdata/clean") {
		t.Errorf("explicit testdata load = %v", expl)
	}
}

// TestLoadErrors covers the failure modes the CLI maps to exit 2.
func TestLoadErrors(t *testing.T) {
	loader := sharedLoader(t)
	if _, err := loader.Load("./nosuchdir"); err == nil {
		t.Error("missing directory accepted")
	}
	if _, err := loader.Load("/"); err == nil {
		t.Error("directory outside the module accepted")
	}
	if _, err := loader.Load("./testdata"); err == nil {
		t.Error("directory without Go files accepted")
	}
}

// TestLoadTestFilesExcluded: the loader must never parse _test.go
// files — several analyzers exempt tests structurally.
func TestLoadTestFilesExcluded(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.loader.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("loader parsed test file %s", name)
			}
		}
	}
}

// TestModuleHasNoOrphans: every non-test function of the module must be
// reachable over the call graph from a root (see orphans), so code that
// only its own tests call cannot ship. A test-helper package is exempt;
// a cross-package test oracle may sit on orphanAllowlist, with its
// reason.
func TestModuleHasNoOrphans(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := sharedLoader(t)
	pkgs, err := loader.Load("../../...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if testHelperPkgs[pkg.Path] {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if testHelperPkgs[imp.Path()] {
				t.Errorf("%s imports the test-helper package %s", pkg.Path, imp.Path())
			}
		}
	}
	prog := NewProgram(pkgs)
	unreached := make(map[string]bool)
	for _, n := range orphans(t, prog, nil) {
		unreached[n.Name()] = true
	}
	var oracles []string
	for _, a := range orphanAllowlist {
		if !unreached[a.fn] {
			t.Errorf("allowlisted %s is reached (or gone): drop its entry", a.fn)
		}
		oracles = append(oracles, a.fn)
	}
	if len(orphanAllowlist) > 10 {
		t.Errorf("%d allowlisted oracles; the contract allows 10", len(orphanAllowlist))
	}
	// An oracle's callees are reached through it.
	for _, n := range orphans(t, prog, oracles) {
		if !testHelperPkgs[n.Pkg.Path] {
			pos := loader.Fset.Position(n.Decl.Pos())
			t.Errorf("%s:%d: %s is reached by no main, init, initializer, function value or stdlib interface", pos.Filename, pos.Line, n.Name())
		}
	}
}

// TestOrphanFixture: the contract flags exactly the planted orphans of
// testdata/orphans (its want comments) and none of the functions that
// stand for each root rule.
func TestOrphanFixture(t *testing.T) {
	pkgs := loadFixture(t, "orphans")
	wants := collectWants(t, pkgs)
	for _, n := range orphans(t, NewProgram(pkgs), nil) {
		pos := pkgs[0].loader.Fset.Position(n.Decl.Pos())
		if !claimWant(wants, pos.Filename, pos.Line, "orphan: "+n.Name()) {
			t.Errorf("%s:%d: unexpected orphan %s", pos.Filename, pos.Line, n.Name())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no orphan matched %q", w.file, w.line, w.re)
		}
	}
}

// testHelperPkgs hold code only tests import: exempt from the orphan
// contract, and imported by no non-test code.
var testHelperPkgs = map[string]bool{
	"vcprof/internal/codec/kernel/kerneltest": true,
	"vcprof/internal/trace/tracetest":         true,
	"vcprof/internal/cluster/chaos":           true,
}

// orphanAllowlist names the exported functions that only tests call,
// kept because tests in other packages use them as oracles. Each entry
// gives its reason and the test that relies on it.
var orphanAllowlist = []struct{ fn, reason, user string }{
	{"kernel.MulRows", "Go twin of the assembly mulRows pass, so a wall checks the transform pass by pass", "transform.TestMulRowsMatchesGeneric"},
	{"trace.WindowOf", "builds a window from hand-written ops, the simulators' input in unit tests", "pipeline.TestIPCBoundedByWidth"},
	{"trace.(Window).MicroOps", "expands a window back to ops, so kernels' tapes compare op by op", "transform.TestSATDMatchesReference"},
	{"service.(*Server).Inflight", "drain oracle passed as a method value: no job outlives its client", "cluster.TestCancellationSweep"},
	{"service.(*Server).Sessions", "drain oracle passed as a method value: no session outlives its client", "cluster.TestCancellationSweep"},
	{"service.SharedRoutes", "the route list one API serves on both backends", "cluster.TestSharedRoutesServedByBoth"},
	{"obs.Reset", "zeroes the process-wide registries before a golden exposition", "telemetry.TestGoldenExposition"},
	{"video.ClipMemoStats", "counts clip generations, so concurrent callers are seen to share one", "live.TestSessionsShareOneReadOnlyClip"},
	{"obs.UnregisterHistogram", "keeps a test's ad-hoc histograms out of the golden exposition", "telemetry.TestWritePromHistogram"},
}

// dynamicIfaces are the standard-library interfaces whose methods the
// standard library calls on a program's values through an interface.
var dynamicIfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"},
	{"net/http", "Handler"},
	{"net/http", "RoundTripper"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"flag", "Value"},
	{"go/types", "Importer"},
}

// orphans returns the program's functions that no root reaches. The
// roots are every main and init, every function a package-level
// initializer calls or references, every address-taken function, the
// methods by which a program type implements one of dynamicIfaces, and
// the functions named in extra.
func orphans(t *testing.T, prog *Program, extra []string) []*Node {
	t.Helper()
	g := prog.CallGraph()
	roots := append([]*Node(nil), g.Inits...)
	for _, n := range g.Nodes {
		name := n.Func.Name()
		if n.Decl.Recv == nil && (name == "init" || name == "main" && n.Pkg.Types.Name() == "main") || slices.Contains(extra, n.Name()) {
			roots = append(roots, n)
		}
	}
	for _, ns := range g.addr {
		roots = append(roots, ns...)
	}
	loader := prog.Pkgs[0].loader
	named := programNamedTypes(prog)
	for _, di := range dynamicIfaces {
		scope := types.Universe
		if di.pkg != "" {
			p, err := loader.Import(di.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(di.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			roots = append(roots, g.implementors(iface, iface.Method(i).Name(), named)...)
		}
	}
	reached := g.reachFrom(roots)
	var out []*Node
	for _, n := range g.Nodes {
		if _, ok := reached[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

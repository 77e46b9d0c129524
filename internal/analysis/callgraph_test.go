package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProgramClosure: NewProgram must union the loader's module import
// closure, so whole-program analyzers see cross-package bodies even
// when only one directory was selected. Loading just the detflow
// fixture root (no /... pattern) must still surface the leak in its
// inner subpackage, reached through an import edge.
func TestProgramClosure(t *testing.T) {
	pkgs := loadFixture(t, "detflow")
	if len(pkgs) != 1 {
		t.Fatalf("selected %d packages, want 1 (the fixture root)", len(pkgs))
	}
	prog := NewProgram(pkgs)
	var paths []string
	for _, p := range prog.Pkgs {
		paths = append(paths, p.Path)
	}
	want := "vcprof/internal/analysis/testdata/detflow/inner"
	found := false
	for _, p := range paths {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("program closure %v missing import-reached package %s", paths, want)
	}

	diags := Run(pkgs, VCProfAnalyzers())
	var crossPkg bool
	for _, d := range diags {
		if d.Analyzer == "detflow" && strings.Contains(d.File, "inner") {
			crossPkg = true
			if len(d.Chain) != 3 {
				t.Errorf("inner-package finding chain has %d hops, want 3: %+v", len(d.Chain), d.Chain)
			}
		}
	}
	if !crossPkg {
		t.Error("no detflow finding in the inner package; closure-reached bodies were not analyzed")
	}
}

// TestProgramIgnoresLoaderHistory: a Program is a function of the
// packages it is given, not of what their loader loaded before. With
// the detflow fixture tree already on the loader, running the analyzers
// over the lockheld fixture alone must give exactly lockheld's wants.
func TestProgramIgnoresLoaderHistory(t *testing.T) {
	if _, err := sharedLoader(t).Load("./testdata/detflow/..."); err != nil {
		t.Fatal(err)
	}
	for _, p := range NewProgram(loadFixture(t, "lockheld")).Pkgs {
		if strings.Contains(p.Path, "/detflow") {
			t.Errorf("lockheld's program holds %s, which it does not import", p.Path)
		}
	}
	runFixture(t, "lockheld")
}

// TestCallGraphEdges pins the resolution kinds on the detflow fixture:
// a static intra-package edge, a static cross-package edge, and chain
// reconstruction from a BFS sweep.
func TestCallGraphEdges(t *testing.T) {
	prog := NewProgram(loadFixture(t, "detflow"))
	g := prog.CallGraph()

	var root *Node
	for _, n := range g.Nodes {
		if n.Name() == "detflow.DetRootCell" {
			root = n
		}
	}
	if root == nil {
		t.Fatal("call graph has no node for detflow.DetRootCell")
	}
	callees := make(map[string]EdgeKind)
	for _, e := range root.Out {
		callees[e.Callee.Name()] = e.Kind
	}
	for _, want := range []string{"detflow.step", "inner.Frame", "detflow.hostName", "detflow.narrate"} {
		if _, ok := callees[want]; !ok {
			t.Errorf("DetRootCell has no edge to %s (callees: %v)", want, callees)
		}
	}
	if kind, ok := callees["inner.Frame"]; ok && kind != EdgeStatic {
		t.Errorf("cross-package call resolved as kind %d, want static", kind)
	}

	reached := g.reachFrom([]*Node{root})
	var tick *Node
	for _, n := range g.Nodes {
		if n.Name() == "inner.tick" {
			tick = n
		}
	}
	if tick == nil {
		t.Fatal("call graph has no node for inner.tick")
	}
	chain := g.chainTo(reached, tick)
	var names []string
	for _, h := range chain {
		names = append(names, h.Func)
	}
	if got, want := strings.Join(names, " → "), "detflow.DetRootCell → inner.Frame → inner.tick"; got != want {
		t.Errorf("chain = %s, want %s", got, want)
	}
	if _, ok := reached[nodeByName(g, "detflow.orphan")]; ok {
		t.Error("orphan is reached from the root; reachability is unsound")
	}
}

func nodeByName(g *CallGraph, name string) *Node {
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// TestInterfaceEdges: a call through an interface method must fan out
// to the fixture implementation (CHA), which is how scheduler task
// bodies become reachable. The shardpure fixture's cellGraph implements
// sched.Graph, so sched's pool internals must grow an edge to its Run.
func TestInterfaceEdges(t *testing.T) {
	prog := NewProgram(loadFixture(t, "shardpure"))
	g := prog.CallGraph()
	run := nodeByName(g, "shardpure.(*cellGraph).Run")
	if run == nil {
		t.Fatal("no node for the fixture's Graph implementation")
	}
	var viaInterface bool
	for _, n := range g.Nodes {
		if n.Pkg.Path != "vcprof/internal/sched" {
			continue
		}
		for _, e := range n.Out {
			if e.Callee == run && e.Kind == EdgeInterface {
				viaInterface = true
			}
		}
	}
	if !viaInterface {
		t.Error("no interface edge from sched into the fixture's Run; CHA resolution is broken")
	}
}

// TestLoaderParseError: a syntactically invalid file must fail Load
// with an error (the CLI maps this to exit 2). The broken source lives
// in a temp module so the committed tree stays parseable end to end.
func TestLoaderParseError(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module tmpmod\n\ngo 1.24\n")
	writeFile("bad.go", "package bad\n\nfunc Unclosed() {\n")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("."); err == nil {
		t.Fatal("Load succeeded on a syntactically broken package")
	}
}

// TestCallGraphCases pins, on the orphans fixture, one resolution per
// case the graph once missed; each of them hid a reachable function from
// the orphan contract, and from detflow's, lockorder's and shardpure's
// walks.
func TestCallGraphCases(t *testing.T) {
	g := NewProgram(loadFixture(t, "orphans")).CallGraph()
	edge := func(t *testing.T, from, to string, kind EdgeKind) {
		t.Helper()
		n := nodeByName(g, from)
		if n == nil {
			t.Fatalf("no node for %s", from)
		}
		for _, e := range n.Out {
			if e.Callee.Name() == to && e.Kind == kind {
				return
			}
		}
		t.Errorf("no kind-%d edge %s → %s", kind, from, to)
	}
	t.Run("generic instantiation", func(t *testing.T) {
		edge(t, "main.main", "main.(*box).get", EdgeStatic)
	})
	t.Run("package-level initializer", func(t *testing.T) {
		var inits []string
		for _, n := range g.Inits {
			inits = append(inits, n.Name())
		}
		if got, want := strings.Join(inits, " "), "main.fromTable main.initCall"; got != want {
			t.Errorf("initializer roots = %q, want %q", got, want)
		}
	})
	t.Run("interface method value", func(t *testing.T) {
		edge(t, "main.main", "main.(impl).put", EdgeDynamic)
	})
	t.Run("promoted interface method", func(t *testing.T) {
		edge(t, "main.(wrap).run", "main.(impl2).put", EdgeInterface)
	})
	t.Run("a call is no value use", func(t *testing.T) {
		for _, ns := range g.addr {
			for _, n := range ns {
				if n.Name() == "main.(*box).onlyFromOrphan" {
					t.Error("a method only ever called is address-taken")
				}
			}
		}
	})
}

package analysis

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each testdata package annotates the lines it
// expects findings on with comments of the form
//
//	// want `regexp` [`regexp` ...]
//
// Every diagnostic must match its own want on its exact line and every
// want must be matched, so fixtures pin both positives and negatives. The
// patterns match against "analyzer: message", and the harness runs the
// full shipped analyzer set — the same instances cmd/vclint uses — so
// the fixtures also prove the scope rules route each package to the
// right analyzers.

var wantPattern = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture loads one package under testdata.
func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./testdata/" + dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// collectWants extracts the expectations from a package's comments.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.fset.Position(c.Pos())
					ms := wantPattern.FindAllStringSubmatch(c.Text[idx:], -1)
					if len(ms) == 0 {
						t.Fatalf("%s:%d: want comment without a backquoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// runFixture checks one fixture package against its want comments.
// Each want absorbs exactly one diagnostic, so a site reported twice
// fails just like a site reported without a want.
func runFixture(t *testing.T, dir string) {
	t.Helper()
	pkgs := loadFixture(t, dir)
	wants := collectWants(t, pkgs)
	diags := Run(pkgs, VCProfAnalyzers())
	for _, d := range diags {
		msg := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d:%d: %s", d.File, d.Line, d.Col, msg)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
}

// fixturePattern is the testdata pattern of an analyzer's fixture tree:
// the directory named after it, with its subpackages when it has any
// (detflow's pin a cross-package chain and one package per source).
func fixturePattern(t *testing.T, name string) string {
	t.Helper()
	ents, err := os.ReadDir("testdata/" + name)
	if err != nil {
		t.Fatalf("analyzer %s has no fixture: %v", name, err)
	}
	for _, e := range ents {
		if e.IsDir() {
			return name + "/..."
		}
	}
	return name
}

// detflowSources are detflow's per-source fixture packages. Each is also
// run on its own, named after the source check it pins (wall clock, host
// environment, randomness, map order), so a regression in one source's
// scope fails by name and does not lean on the rest of the tree.
var detflowSources = []struct{ name, dir string }{
	{"detnow", "detflow/clock"},
	{"detenv", "detflow/env"},
	{"detrand", "detflow/rand"},
	{"detmaprange", "detflow/maprange"},
}

// TestFixtures runs every shipped analyzer's fixture. Each fixture must
// both trip its analyzer on the annotated lines and stay silent on the
// counter-example functions.
func TestFixtures(t *testing.T) {
	for _, az := range VCProfAnalyzers() {
		dir := fixturePattern(t, az.Name)
		t.Run(dir, func(t *testing.T) { runFixture(t, dir) })
	}
	for _, src := range detflowSources {
		t.Run(src.name, func(t *testing.T) { runFixture(t, src.dir) })
	}
}

// TestFixturesFindSomething guards against a silently dead analyzer: a
// fixture with zero findings and zero wants would pass runFixture.
func TestFixturesFindSomething(t *testing.T) {
	findSome := func(t *testing.T, dir, analyzer string) {
		for _, d := range Run(loadFixture(t, dir), VCProfAnalyzers()) {
			if d.Analyzer == analyzer {
				return
			}
		}
		t.Fatalf("fixture %s produced no %s findings", dir, analyzer)
	}
	for _, az := range VCProfAnalyzers() {
		dir := fixturePattern(t, az.Name)
		t.Run(dir, func(t *testing.T) { findSome(t, dir, az.Name) })
	}
	for _, src := range detflowSources {
		t.Run(src.name, func(t *testing.T) { findSome(t, src.dir, "detflow") })
	}
}

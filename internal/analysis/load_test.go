package analysis

import (
	"strings"
	"testing"
)

// TestLoadModuleTree type-checks the real repository tree (everything
// under internal/) with the stdlib-only loader — the strongest check
// that the custom importer chain (module-internal recursion + GOROOT
// source importer) resolves every dependency the codebase actually has.
func TestLoadModuleTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := sharedLoader(t)
	if loader.Module != "vcprof" {
		t.Fatalf("module = %q, want vcprof", loader.Module)
	}
	pkgs, err := loader.Load("../...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded %d packages, expected the internal tree (>= 15)", len(pkgs))
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
			t.Errorf("package %s loaded without types or syntax", pkg.Path)
		}
		if !strings.HasPrefix(pkg.Path, "vcprof/") {
			t.Errorf("package path %q not under the module", pkg.Path)
		}
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("wildcard walk descended into %s", pkg.Path)
		}
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

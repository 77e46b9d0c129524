package vcprof

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	fuzzSmokeLine = regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) -run=\^\$\$ -fuzz=(Fuzz\w+) -fuzztime=\$\(FUZZTIME\)$`)
	fuzzFunc      = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// TestFuzzSmokeListsEveryTarget holds the Makefile's fuzz-smoke recipe
// to the tree: it runs each Fuzz function of a _test.go file once, in
// the package that declares it, and names nothing else.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	var listed []string
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		m := fuzzSmokeLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("fuzz-smoke line %q is not one target's smoke", line)
		}
		listed = append(listed, m[1]+" "+m[2])
	}

	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			declared = append(declared, "./"+filepath.ToSlash(filepath.Dir(path))+" "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no Fuzz function found: the walk did not reach the packages")
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if !slices.Equal(listed, declared) {
		t.Errorf("fuzz-smoke runs\n\t%s\nthe tree declares\n\t%s", strings.Join(listed, "\n\t"), strings.Join(declared, "\n\t"))
	}
}

package kernel

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fma matches the fused multiply-add mnemonics, whose single rounding
// is exactly what the Go loops must not and cannot match.
var fma = regexp.MustCompile(`VF(N?M(ADD|SUB)|MADDSUB|MSUBADD)`)

// TestKernelLayout walks the module from its go.mod and checks what
// makes this package the one home of the host kernels (DESIGN.md §4):
// every .s file in the tree is in this directory, this package's
// kernel_other.go is the tree's only _other.go, and no .s file holds a
// fused multiply-add.
func TestKernelLayout(t *testing.T) {
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	root := here
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatalf("no go.mod above %s", here)
		}
		root = parent
	}
	var asm, other []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return nil
		case filepath.Ext(path) == ".s":
			asm = append(asm, path)
		case strings.HasSuffix(d.Name(), "_other.go"):
			other = append(other, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(asm) == 0 {
		t.Fatal("no assembly found: the walk did not reach this package")
	}
	for _, path := range asm {
		if filepath.Dir(path) != here {
			t.Errorf("assembly outside %s: %s", here, path)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := fma.Find(src); m != nil {
			t.Errorf("%s holds the fused multiply-add %s", path, m)
		}
	}
	if want := filepath.Join(here, "kernel_other.go"); len(other) != 1 || other[0] != want {
		t.Errorf("the tree's _other.go files are %q, want only %s", other, want)
	}
}

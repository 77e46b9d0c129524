package analysis

import "testing"

// TestPathScopeFileEntry: a scope entry ending in a file name puts that
// one file in scope and leaves its siblings and its package out.
func TestPathScopeFileEntry(t *testing.T) {
	s := pathScope{name: "lockheld", paths: []string{"m/kernels", "m/trace/ctx.go"}}
	for _, tc := range []struct {
		pkg, file string
		want      bool
	}{
		{"m/kernels", "/src/m/kernels/dct.go", true},
		{"m/kernels/sub", "/src/m/kernels/sub/x.go", true},
		{"m/trace", "/src/m/trace/ctx.go", true},
		{"m/trace", "/src/m/trace/io.go", false},
		{"m/other", "/src/m/other/ctx.go", false},
		{"m/analysis/testdata/lockheld", "/src/m/analysis/testdata/lockheld/a.go", true},
	} {
		if got := s.inFile(tc.pkg, tc.file); got != tc.want {
			t.Errorf("inFile(%q, %q) = %v, want %v", tc.pkg, tc.file, got, tc.want)
		}
	}
	if s.in("m/trace") {
		t.Error("a file entry put its whole package in scope")
	}
}

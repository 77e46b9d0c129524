package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Run applies every analyzer to every package, filters findings through
// //lint:ignore directives, and returns the surviving diagnostics in a
// deterministic order (file, line, col, analyzer, message). Malformed
// ignore directives, and directives naming an analyzer not in
// analyzers, are reported as findings of the pseudo-analyzer "vclint".
//
// Per-package analyzers (Run) see one package at a time; whole-program
// analyzers (RunProgram) execute once afterwards over the packages plus
// their module import closure. Suppression directives are honored
// program-wide: a chain-carrying finding may be silenced at the
// declaration of the sink's enclosing function even when that function
// lives in a package reached only through an import edge.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	var diags []Diagnostic
	ignores := make(ignoreSet)
	known := make(map[string]bool, len(analyzers))
	for _, az := range analyzers {
		known[az.Name] = true
	}
	for _, pkg := range pkgs {
		pkgIgnores, bad := parseIgnores(pkg.loader.Fset, pkg.Files, known)
		out = append(out, bad...)
		ignores.union(pkgIgnores)
		for _, az := range analyzers {
			if az.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: az, Fset: pkg.loader.Fset, Pkg: pkg, diags: &diags}
			az.Run(pass)
		}
	}
	var progAz []*Analyzer
	for _, az := range analyzers {
		if az.RunProgram != nil {
			progAz = append(progAz, az)
		}
	}
	if len(progAz) > 0 && len(pkgs) > 0 {
		prog := NewProgram(pkgs)
		selected := make(map[string]bool, len(pkgs))
		for _, pkg := range pkgs {
			selected[pkg.Path] = true
		}
		// Closure-only packages contribute directives (their functions
		// can carry chain hops) but not malformed-directive findings:
		// they were not asked for.
		for _, pkg := range prog.Pkgs {
			if !selected[pkg.Path] {
				pkgIgnores, _ := parseIgnores(pkg.loader.Fset, pkg.Files, known)
				ignores.union(pkgIgnores)
			}
		}
		for _, az := range progAz {
			pp := &ProgramPass{Analyzer: az, Prog: prog, diags: &diags}
			az.RunProgram(pp)
		}
	}
	for _, d := range diags {
		if !ignores.suppressed(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// RenderText renders findings one per line in compiler style. With why
// set, each chain-carrying finding is followed by its root→sink call
// chain, one indented hop per line.
func RenderText(w io.Writer, diags []Diagnostic, why bool) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
		if why && len(d.Chain) > 0 {
			for i, h := range d.Chain {
				arrow := "   "
				if i > 0 {
					arrow = " → "
				}
				fmt.Fprintf(w, "\t%s%s (%s:%d)\n", arrow, h.Func, h.File, h.Line)
			}
		}
	}
}

// report is the JSON document vclint -json emits.
type report struct {
	Findings []Diagnostic `json:"findings"`
	Count    int          `json:"count"`
}

// RenderJSON renders findings as a single JSON object:
// {"findings":[{analyzer,file,line,col,message}...],"count":N}.
// An empty finding list marshals as [], not null.
func RenderJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report{Findings: diags, Count: len(diags)})
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// silences the named analyzers on the directive's own line (trailing
// comment) or on the line directly below it (standalone comment). The
// reason is mandatory — an ignore without one is itself reported, so
// every suppression in the tree documents why the invariant does not
// apply. Parsing is purely syntactic; want-style fixture comments and
// ordinary prose are untouched.

const ignorePrefix = "lint:ignore"

// ignoreKey addresses one suppressed (file, line, analyzer) triple.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// suppressed reports whether a diagnostic is covered by a directive on
// its own line or the line above. A chain-carrying diagnostic may also
// be suppressed at its LAST chain hop — the declaration of the function
// containing the sink — so one function-level directive covers every
// volatile site inside that function without being as broad as a
// file allowlist. Directives on intermediate or root hops deliberately
// never suppress: an ignore on harness.RunAll must not hide a leak
// introduced three calls below it.
func (s ignoreSet) suppressed(d Diagnostic) bool {
	if s[ignoreKey{d.File, d.Line, d.Analyzer}] ||
		s[ignoreKey{d.File, d.Line - 1, d.Analyzer}] {
		return true
	}
	if n := len(d.Chain); n > 0 {
		h := d.Chain[n-1]
		return s[ignoreKey{h.File, h.Line, d.Analyzer}] ||
			s[ignoreKey{h.File, h.Line - 1, d.Analyzer}]
	}
	return false
}

// union merges another ignore set into s.
func (s ignoreSet) union(other ignoreSet) {
	for k := range other {
		s[k] = true
	}
}

// parseIgnores scans a package's comments for directives. Malformed
// directives (no analyzer name or no reason) and names outside known
// (a typo, or an analyzer vclint no longer ships) are returned as
// diagnostics under the pseudo-analyzer "vclint" so the driver surfaces
// them instead of silently ignoring nothing.
func parseIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				report := func(msg string) {
					bad = append(bad, Diagnostic{Analyzer: "vclint", File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg})
				}
				names, ok := splitDirective(text)
				if !ok {
					report("malformed lint:ignore directive: want //lint:ignore <analyzer> <reason>")
					continue
				}
				for _, name := range names {
					if !known[name] {
						report(fmt.Sprintf("lint:ignore names unknown analyzer %q (vclint -list shows the shipped set)", name))
					}
					set[ignoreKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return set, bad
}

// directiveText extracts the payload of a //lint:ignore comment.
func directiveText(comment string) (string, bool) {
	body, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false // block comments are not directives
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, ignorePrefix)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. lint:ignorefoo
	}
	return strings.TrimSpace(rest), true
}

// splitDirective parses "<analyzer>[,...] <reason>"; both parts are
// required.
func splitDirective(text string) (names []string, ok bool) {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil, false
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}

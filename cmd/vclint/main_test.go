package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vcprof/internal/analysis"
)

const fixtures = "../../internal/analysis/testdata/"

// runCLI invokes the vclint entry point and captures its streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins the CLI contract: 0 clean, 1 findings, 2 errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean-fixture", []string{fixtures + "clean"}, 0},
		{"findings", []string{fixtures + "detflow/rand"}, 1},
		{"missing-dir", []string{fixtures + "nosuch"}, 2},
		{"broken-fixture", []string{fixtures + "broken"}, 2},
		{"bad-flag", []string{"-definitely-not-a-flag"}, 2},
		{"list", []string{"-list"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != tc.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
		})
	}
}

// TestFixturePackagesTrip: one CLI run over every shipped analyzer's
// fixture tree must exit 1 and attribute findings to each analyzer by
// name inside its own fixture, and to detflow inside each of its
// per-source fixture packages — the acceptance contract for the
// fixtures.
func TestFixturePackagesTrip(t *testing.T) {
	azs := analysis.VCProfAnalyzers()
	var patterns []string
	for _, az := range azs {
		patterns = append(patterns, fixtures+az.Name+"/...")
	}
	code, stdout, stderr := runCLI(t, patterns...)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	trip := func(t *testing.T, dir, analyzer string) {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.Contains(line, "testdata/"+dir+"/") && strings.Contains(line, ": "+analyzer+": ") {
				return
			}
		}
		t.Errorf("no %s finding in testdata/%s:\n%s", analyzer, dir, stdout)
	}
	for _, az := range azs {
		t.Run(az.Name, func(t *testing.T) { trip(t, az.Name, az.Name) })
	}
	// Named after the source check each package pins.
	for _, src := range []struct{ name, dir string }{
		{"detnow", "detflow/clock"},
		{"detenv", "detflow/env"},
		{"detrand", "detflow/rand"},
		{"detmaprange", "detflow/maprange"},
	} {
		t.Run(src.name, func(t *testing.T) { trip(t, src.dir, "detflow") })
	}
}

// TestWhyOutput: -why must follow a detflow finding with its root→sink
// call chain, root first, one indented hop per line — the acceptance
// contract for whole-program diagnostics.
func TestWhyOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-why", fixtures+"detflow/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "detflow: wall-clock time.Since reachable from deterministic root detflow.DetRootCell") {
		t.Fatalf("missing cross-package detflow finding:\n%s", stdout)
	}
	var sawRoot, sawSink bool
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue // chain hops are the indented lines
		}
		if strings.Contains(line, "detflow.DetRootCell (") {
			sawRoot = true
		}
		if sawRoot && strings.Contains(line, "→") && strings.Contains(line, "inner.tick (") {
			sawSink = true
		}
	}
	if !sawRoot || !sawSink {
		t.Errorf("-why chain missing root and/or sink hop (root=%v sink=%v):\n%s", sawRoot, sawSink, stdout)
	}
	// Without -why the chains must stay off the human output.
	_, plain, _ := runCLI(t, fixtures+"detflow/...")
	if strings.Contains(plain, "→") {
		t.Errorf("chain hops printed without -why:\n%s", plain)
	}
}

// TestJSONChain: findings reachable from a root carry their root-first
// call chain in the JSON output. The detflow root package (with the
// inner package it imports) holds only such findings.
func TestJSONChain(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", fixtures+"detflow")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			Chain    []struct {
				Func string `json:"func"`
				File string `json:"file"`
				Line int    `json:"line"`
				Col  int    `json:"col"`
			} `json:"chain"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, stdout)
	}
	var chained bool
	for _, f := range doc.Findings {
		if f.Analyzer != "detflow" {
			continue
		}
		if len(f.Chain) == 0 {
			t.Errorf("detflow finding without chain: %+v", f)
			continue
		}
		chained = true
		if first := f.Chain[0]; !strings.HasPrefix(first.Func, "detflow.DetRoot") || first.Line == 0 {
			t.Errorf("chain does not start at a root hop: %+v", first)
		}
	}
	if !chained {
		t.Fatal("no detflow finding with a chain in JSON output")
	}
}

// TestJSONOutput: -json emits one parseable object with the documented
// shape and still exits 1 on findings.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", fixtures+"detflow/rand")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"findings"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, stdout)
	}
	if doc.Count != len(doc.Findings) || doc.Count == 0 {
		t.Fatalf("count %d vs %d findings", doc.Count, len(doc.Findings))
	}
	f := doc.Findings[0]
	if f.Analyzer != "detflow" || f.Line == 0 || !strings.HasSuffix(f.File, ".go") {
		t.Errorf("unexpected finding: %+v", f)
	}
}

// TestHumanOutput: the default rendering is file:line:col: analyzer:
// message, one per line.
func TestHumanOutput(t *testing.T) {
	_, stdout, _ := runCLI(t, fixtures+"detflow/rand")
	line := strings.SplitN(strings.TrimSpace(stdout), "\n", 2)[0]
	if !strings.Contains(line, ".go:") || !strings.Contains(line, ": detflow: ") {
		t.Errorf("unexpected human output line: %q", line)
	}
}

// TestListOutput names every shipped analyzer, one per line.
func TestListOutput(t *testing.T) {
	_, stdout, _ := runCLI(t, "-list")
	azs := analysis.VCProfAnalyzers()
	if lines := strings.Count(stdout, "\n"); lines != len(azs) {
		t.Errorf("-list printed %d lines, want %d:\n%s", lines, len(azs), stdout)
	}
	for _, az := range azs {
		if !strings.Contains(stdout, az.Name+" ") {
			t.Errorf("-list output missing %s:\n%s", az.Name, stdout)
		}
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestCleanFixture: the zero-finding fixture must stay silent under the
// full analyzer set — the baseline for "vclint ./... exits 0".
func TestCleanFixture(t *testing.T) {
	diags := Run(loadFixture(t, "clean"), VCProfAnalyzers())
	for _, d := range diags {
		t.Errorf("clean fixture produced finding: %s", d)
	}
}

// TestIgnoreSuppression: both directive placements (line above, same
// line) must silence their findings, and nothing else may fire.
func TestIgnoreSuppression(t *testing.T) {
	pkgs := loadFixture(t, "ignore")
	for _, d := range Run(pkgs, VCProfAnalyzers()) {
		t.Errorf("suppressed fixture produced finding: %s", d)
	}
	// The same package without suppression honored must trip detflow
	// twice (rand and map order) — proving the directives did the
	// silencing.
	var raw []Diagnostic
	prog := NewProgram(pkgs)
	for _, az := range VCProfAnalyzers() {
		if az.Name == "detflow" {
			az.RunProgram(&ProgramPass{Analyzer: az, Prog: prog, diags: &raw})
		}
	}
	if len(raw) != 2 {
		t.Errorf("ignore fixture tripped detflow %d times, want 2; suppression test is vacuous: %v", len(raw), raw)
	}
}

// vclintFindings runs the badignore fixture, whose findings are all
// about its directives.
func vclintFindings(t *testing.T) []Diagnostic {
	t.Helper()
	diags := Run(loadFixture(t, "badignore"), VCProfAnalyzers())
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "vclint" {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	return diags
}

// TestMalformedIgnoreReported: a directive without a reason is itself a
// finding, attributed to the "vclint" pseudo-analyzer.
func TestMalformedIgnoreReported(t *testing.T) {
	if d := vclintFindings(t)[0]; !strings.Contains(d.Message, "malformed lint:ignore") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestUnknownIgnoreReported: a directive naming an analyzer vclint does
// not ship (here a typo of detflow) suppresses nothing, so it is itself
// a finding rather than a silent no-op.
func TestUnknownIgnoreReported(t *testing.T) {
	if d := vclintFindings(t)[1]; !strings.Contains(d.Message, `unknown analyzer "detflwo"`) || d.Line != 10 {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestJSONShape pins the -json output contract: an object with a
// findings array (never null) and a count, each finding carrying
// analyzer/file/line/col/message.
func TestJSONShape(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "detflow", File: "a.go", Line: 3, Col: 7, Message: "m"},
	}
	var buf bytes.Buffer
	if err := RenderJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []map[string]any `json:"findings"`
		Count    int              `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Count != 1 || len(doc.Findings) != 1 {
		t.Fatalf("count/findings mismatch: %s", buf.String())
	}
	var keys []string
	for k := range doc.Findings[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "analyzer,col,file,line,message"; got != want {
		t.Errorf("finding keys = %s, want %s", got, want)
	}

	buf.Reset()
	if err := RenderJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("empty findings must marshal as [], got %s", buf.String())
	}
}

// TestRunOrdersDiagnostics: findings come back sorted by position so
// output is byte-stable run to run.
func TestRunOrdersDiagnostics(t *testing.T) {
	diags := Run(loadFixture(t, "detflow/..."), VCProfAnalyzers())
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	}) {
		t.Errorf("diagnostics not position-sorted: %v", diags)
	}
}

// TestDirectiveParsing unit-tests the directive grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		comment string
		names   string // comma-joined expected names; "" = not a directive or malformed
		ok      bool
	}{
		{"//lint:ignore detflow reason here", "detflow", true},
		{"// lint:ignore detflow spaced form", "detflow", true},
		{"//lint:ignore detflow,lockheld shared reason", "detflow,lockheld", true},
		{"//lint:ignore detflow", "", false},     // no reason
		{"//lint:ignore", "", false},             // nothing at all
		{"//lint:ignorance is bliss", "", false}, // not the directive
		{"// plain comment", "", false},
	}
	for _, tc := range cases {
		text, isDir := directiveText(tc.comment)
		if !isDir {
			if tc.ok {
				t.Errorf("%q: not recognized as directive", tc.comment)
			}
			if tc.comment == "//lint:ignore detflow" || tc.comment == "//lint:ignore" {
				t.Errorf("%q: must be recognized (then rejected as malformed)", tc.comment)
			}
			continue
		}
		names, ok := splitDirective(text)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.comment, ok, tc.ok)
			continue
		}
		if ok && strings.Join(names, ",") != tc.names {
			t.Errorf("%q: names = %v, want %s", tc.comment, names, tc.names)
		}
	}
}

package harness

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files:
//
//	go test ./internal/harness -run Golden -update
var update = flag.Bool("update", false, "rewrite golden table files")

// goldenScale pins the configuration the golden files were rendered at.
// It must never change silently: every value below is part of the
// regression contract, and the harness is deterministic at a fixed
// scale (procedural clips, simulated encoders, modeled wall time), so
// CSV output is byte-stable across runs and hosts.
func goldenScale() Scale {
	return QuickScale()
}

const goldenDir = "testdata/golden"

// TestGoldenTables regenerates every registered experiment at the
// golden scale and compares each table's CSV rendering byte-for-byte
// with the checked-in file. A diff means an intentional change
// (regenerate with -update and review the diff) or a regression. The
// run is at 8 workers whatever the host, so the fixed bytes also prove
// that a concurrent run of the full list renders what was recorded.
func TestGoldenTables(t *testing.T) {
	if raceEnabled {
		t.Skip("value determinism is covered without -race; the race pass runs the worker-equivalence suite instead")
	}
	ResetCellCache()
	rep, err := RunAll(context.Background(), goldenScale(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(List()) {
		t.Fatalf("ran %d experiments, registry has %d", len(rep.Results), len(List()))
	}
	seen := map[string]bool{}
	var missing int
	for _, er := range rep.Results {
		if len(er.Tables) == 0 {
			t.Errorf("%s produced no tables", er.ID)
		}
		for _, tab := range er.Tables {
			if seen[tab.ID] {
				t.Fatalf("duplicate table ID %q: golden files need unique names", tab.ID)
			}
			seen[tab.ID] = true
			path := filepath.Join(goldenDir, tab.ID+".csv")
			got := tab.CSV()
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				missing++
				t.Errorf("%s: no golden file for table %s (run with -update): %v", er.ID, tab.ID, err)
				continue
			}
			if got != string(want) {
				t.Errorf("%s: table %s differs from golden file %s\n%s", er.ID, tab.ID, path, firstDiff(string(want), got))
			}
		}
	}
	if *update {
		t.Logf("golden files rewritten under %s", goldenDir)
		return
	}
	// Every golden file must correspond to a live table — stale files
	// mean an experiment was renamed without regenerating.
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("golden dir missing (run with -update): %v", err)
	}
	for _, e := range entries {
		id := e.Name()
		if filepath.Ext(id) != ".csv" {
			continue
		}
		id = id[:len(id)-len(".csv")]
		if !seen[id] {
			t.Errorf("stale golden file %s: no experiment renders table %q", e.Name(), id)
		}
	}
}

// firstDiff renders the first divergent line of two CSV strings.
func firstDiff(want, got string) string {
	wl := splitLines(want)
	gl := splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "(identical?)"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

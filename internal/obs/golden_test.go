// Golden test for the observability layer: a pinned harness run's
// Chrome trace and self-profile table are byte-compared against checked
// in files, at two worker counts. This is the executable form of the
// layer's determinism contract — the trace records what was computed,
// never how it was scheduled.
package obs_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vcprof/internal/harness"
	"vcprof/internal/obs"
)

// update regenerates the golden files:
//
//	go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite obs golden files")

const goldenDir = "testdata/golden"

// goldenScale pins the run the golden files were rendered at: one clip,
// two frames, two CRF points. Small enough to run in seconds, rich
// enough to exercise counted-encode frame/stage spans (table2, fig3)
// and perf-façade stat cells with cache counters (fig4).
func goldenScale() harness.Scale {
	s := harness.QuickScale()
	s.Clips = []string{"desktop"}
	s.Frames = 2
	s.CRFs = []int{20, 40}
	return s
}

var goldenExperiments = []string{"table2", "fig3", "fig4"}

// capture runs the pinned experiments at the given worker count from a
// cold cache and returns the three rendered artifacts.
func capture(t *testing.T, workers int) (trace, profile, counters string) {
	t.Helper()
	harness.ResetCellCache()
	harness.ResetClipCache()
	obs.Reset()
	sess := obs.NewSession()
	_, err := harness.RunAll(context.Background(), goldenScale(), harness.Options{
		Workers:     workers,
		Experiments: goldenExperiments,
		Obs:         sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := obs.WriteChromeTrace(&b, sess); err != nil {
		t.Fatal(err)
	}
	return b.String(), obs.RenderProfile(sess.Profile(), 20), obs.RenderCounters(false)
}

// TestGoldenTrace is the acceptance check from two directions: the
// artifacts must be byte-identical between a serial run and a wide
// pool (scheduling independence), and must match the checked-in golden
// files (cross-version regression). A diff against the goldens means
// an intentional observation change (regenerate with -update and
// review) or a determinism regression.
func TestGoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full harness cells; skipped in -short")
	}
	trace1, prof1, ctr1 := capture(t, 1)
	trace8, prof8, ctr8 := capture(t, 8)
	if trace1 != trace8 {
		t.Errorf("Chrome trace differs between -j1 and -j8:\n%s", firstDiff(trace1, trace8))
	}
	if prof1 != prof8 {
		t.Errorf("self-profile differs between -j1 and -j8:\n%s", firstDiff(prof1, prof8))
	}
	if ctr1 != ctr8 {
		t.Errorf("deterministic counters differ between -j1 and -j8:\n%s", firstDiff(ctr1, ctr8))
	}

	files := map[string]string{
		"trace.json":  trace1,
		"profile.txt": prof1,
	}
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, got := range files {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("golden files rewritten under %s", goldenDir)
		return
	}
	for name, got := range files {
		path := filepath.Join(goldenDir, name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("no golden file %s (run with -update): %v", path, err)
			continue
		}
		if got != string(want) {
			t.Errorf("%s differs from golden file\n%s", name, firstDiff(string(want), got))
		}
	}
}

// firstDiff renders the first divergent line of two renderings.
func firstDiff(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(identical?)"
}

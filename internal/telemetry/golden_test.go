// Golden test for the Prometheus exposition: a pinned harness run's
// deterministic metric subset must render to identical bytes at -j1
// and -j8 and match the checked-in golden file. This is the exposition
// form of the repo's worker-count equivalence contract — scheduling
// may never show through /metrics' deterministic domain.
package telemetry_test

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
	"vcprof/internal/telemetry"
)

// update regenerates the golden file:
//
//	go test ./internal/telemetry -run Golden -update
var update = flag.Bool("update", false, "rewrite the exposition golden file")

const goldenPath = "testdata/golden/metrics.prom"

// captureExposition runs pinned experiments from a cold cache and
// renders the deterministic exposition subset. The experiment set
// covers counted encodes (stage-tick histograms), the perf façade
// (perf.stat counters) and cache counters.
func captureExposition(t *testing.T, workers int) string {
	t.Helper()
	harness.ResetCellCache()
	harness.ResetClipCache()
	obs.Reset()
	scale := harness.QuickScale()
	scale.Clips = []string{"desktop"}
	scale.Frames = 2
	scale.CRFs = []int{20, 40}
	_, err := harness.RunAll(context.Background(), scale, harness.Options{
		Workers:     workers,
		Experiments: []string{"table2", "fig3", "fig4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := telemetry.WriteProm(&b, telemetry.PromOptions{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestGoldenExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full harness cells; skipped in -short")
	}
	expo1 := captureExposition(t, 1)
	expo8 := captureExposition(t, 8)
	if expo1 != expo8 {
		t.Errorf("deterministic exposition differs between -j1 and -j8:\n%s", firstDiff(expo1, expo8))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(expo1), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file %s (run with -update): %v", goldenPath, err)
	}
	if expo1 != string(want) {
		t.Errorf("exposition differs from golden file\n%s", firstDiff(string(want), expo1))
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

package obs_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"vcprof/internal/harness"
	"vcprof/internal/obs"
)

// captureFolded runs a pinned fig2b (PSNR vs encode time sweep) from a
// cold cache at the given worker count and folds its span trees.
func captureFolded(t *testing.T, workers int) string {
	t.Helper()
	harness.ResetCellCache()
	harness.ResetClipCache()
	obs.Reset()
	sess := obs.NewSession()
	_, err := harness.RunAll(context.Background(), goldenScale(), harness.Options{
		Workers:     workers,
		Experiments: []string{"fig2b"},
		Obs:         sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := obs.WriteFolded(&b, obs.FoldedProfile(sess)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenFolded pins the continuous profiler's folded-stack output
// on a fixed fig2b run: byte-identical between -j1 and -j8 (the
// virtual-tick clock makes the fold scheduling-independent) and
// byte-identical to the checked-in golden file. Regenerate with
// -update after intentional span or clock changes.
func TestGoldenFolded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full harness cells; skipped in -short")
	}
	fold1 := captureFolded(t, 1)
	fold8 := captureFolded(t, 8)
	if fold1 != fold8 {
		t.Errorf("folded stacks differ between -j1 and -j8:\n%s", firstDiff(fold1, fold8))
	}
	path := filepath.Join(goldenDir, "folded.txt")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(fold1), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file %s (run with -update): %v", path, err)
	}
	if fold1 != string(want) {
		t.Errorf("folded stacks differ from golden file\n%s", firstDiff(string(want), fold1))
	}
}

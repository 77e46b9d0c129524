package bpred_test

import (
	"context"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/video"
)

// recordedBranches is the branch list of a perf.RecordWindow window cut
// from the middle of an encode: what the predictors actually see.
func recordedBranches(tb testing.TB) []trace.MicroOp {
	tb.Helper()
	meta, err := video.LookupClip("game1")
	if err != nil {
		tb.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 16})
	if err != nil {
		tb.Fatal(err)
	}
	rec, _, err := perf.RecordWindow(context.Background(), encoders.MustNew(encoders.SVTAV1), clip,
		encoders.Options{CRF: 40, Preset: 6}, 0.5, 400_000)
	if err != nil {
		tb.Fatal(err)
	}
	branches := rec.Ops.Branches()
	if len(branches) < 10_000 {
		tb.Fatalf("window holds only %d branches", len(branches))
	}
	return branches
}

// TestTAGEFastVsRefOnRecordedWindow repeats the differential wall on
// the recorded window.
func TestTAGEFastVsRefOnRecordedWindow(t *testing.T) {
	branches := recordedBranches(t)
	for _, size := range []int{8 << 10, 64 << 10} {
		bpred.DiffTAGEOnWindow(t, size, branches)
	}
}

// BenchmarkStep times one Step of each predictor on the recorded
// window, through the interface as every caller pays it; a pass over
// the window starts cold, as a championship trace does.
func BenchmarkStep(b *testing.B) {
	branches := recordedBranches(b)
	for _, name := range bpred.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := bpred.NewByName(name)
			if err != nil {
				b.Fatal(err)
			}
			miss, passes := 0, 0
			for i, j := 0, 0; i < b.N; i++ {
				if br := &branches[j]; p.Step(uint64(br.PC), br.Taken) != br.Taken && passes == 0 {
					miss++
				}
				if j++; j == len(branches) {
					j = 0
					passes++
					p.Reset()
				}
			}
			if passes > 0 { // the first pass's rate: every pass repeats it
				b.ReportMetric(100*float64(miss)/float64(len(branches)), "miss%")
			}
		})
	}
}

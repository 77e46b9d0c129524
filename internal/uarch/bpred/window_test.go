package bpred_test

import (
	"context"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/perf"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/video"
)

// TestTAGEFastVsRefOnRecordedWindow repeats the differential wall on
// what the predictors actually see: the branches of a
// perf.RecordWindow window cut from the middle of an encode.
func TestTAGEFastVsRefOnRecordedWindow(t *testing.T) {
	meta, err := video.LookupClip("game1")
	if err != nil {
		t.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 16})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := perf.RecordWindow(context.Background(), encoders.MustNew(encoders.SVTAV1), clip,
		encoders.Options{CRF: 40, Preset: 6}, 0.5, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	branches := rec.Ops.Branches()
	if len(branches) < 10_000 {
		t.Fatalf("window holds only %d branches", len(branches))
	}
	for _, size := range []int{8 << 10, 64 << 10} {
		bpred.DiffTAGEOnWindow(t, size, branches)
	}
}

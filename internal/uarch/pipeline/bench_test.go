package pipeline_test

import (
	"context"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/video"
)

// BenchmarkRun replays recorded encoder windows through the core model:
// the middle 400k µops of one encode per family, at its mid preset, of
// a small game1 clip. One op is a replay of all five windows, cold as a
// cell's is; ns/µop is the host time a modelled instruction costs.
func BenchmarkRun(b *testing.B) {
	meta, err := video.LookupClip("game1")
	if err != nil {
		b.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 20})
	if err != nil {
		b.Fatal(err)
	}
	var wins []trace.Window
	uops := 0
	for _, fam := range encoders.Families() {
		enc := encoders.MustNew(fam)
		lo, hi, _ := enc.PresetRange()
		rec, _, err := perf.RecordWindow(context.Background(), enc, clip, encoders.Options{Preset: (lo + hi + 1) / 2}, 0.5, 400_000)
		if err != nil {
			b.Fatal(err)
		}
		wins = append(wins, rec.Ops)
		uops += rec.Ops.Len()
	}
	sim, err := pipeline.New(pipeline.Broadwell())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range wins {
			if _, err := sim.Run(w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uops), "ns/µop")
}

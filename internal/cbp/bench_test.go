package cbp

import (
	"context"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/perf"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/video"
)

// BenchmarkChampionshipZoo scores one 1 M-op recorded window, the
// replay_grid shape. zoo is all nine names; plain is the seven that
// are not hybrids and hybrids the two that are, each stepping a TAGE
// of its own. zoo steps each TAGE geometry once, so it costs plain
// plus the two loop overlays: well under plain + hybrids.
func BenchmarkChampionshipZoo(b *testing.B) {
	meta, err := video.LookupClip("game1")
	if err != nil {
		b.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 20})
	if err != nil {
		b.Fatal(err)
	}
	rec, _, err := perf.RecordWindow(context.Background(), encoders.MustNew(encoders.SVTAV1), clip,
		encoders.Options{CRF: 40, Preset: 6}, 0.5, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := FromRecorder("game1", rec)
	if err != nil {
		b.Fatal(err)
	}
	zoo := bpred.Names()
	for _, set := range []struct {
		name  string
		names []string
	}{{"zoo", zoo}, {"plain", zoo[:7]}, {"hybrids", zoo[7:]}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Championship(set.names, []Trace{tr}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Branches)*len(set.names)), "ns/prediction")
		})
	}
}

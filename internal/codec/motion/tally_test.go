package motion

import (
	"fmt"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/trace"
	"vcprof/internal/trace/tracetest"
	"vcprof/internal/video"
)

// TestSADCountsWhatItRecords: SSE-class (≤ 8) and AVX-class widths,
// heights off and on the 4-row unroll, blocks without pixels and
// rejected blocks.
func TestSADCountsWhatItRecords(t *testing.T) {
	type out struct {
		sum int32
		err error
	}
	cur, ref := shiftedPair(t, 160, 136, 3, 1)
	for _, w := range []int{0, 1, 3, 4, 8, 12, 16, 24, 32, 33, 64, 128} {
		for _, h := range []int{-5, 0, 1, 2, 4, 5, 16, 64, 128} {
			tracetest.CountMatchesRecorded(t, fmt.Sprintf("%dx%d", w, h), trace.StageQuant, func(tc *trace.Ctx) out {
				s, err := SAD(tc, cur, 7, 5, ref, 9, 6, w, h)
				return out{s, err}
			})
		}
	}
	tracetest.CountMatchesRecorded(t, "outside", trace.StageQuant, func(tc *trace.Ctx) out {
		s, err := SAD(tc, cur, 150, 0, ref, 0, 0, 16, 16)
		return out{s, err}
	})
}

// TestSearchCountsWhatItRecords: every algorithm over the windows of
// TestFullSearchEvaluatesEachPositionOnce, clamped ones included.
func TestSearchCountsWhatItRecords(t *testing.T) {
	type out struct {
		res Result
		err error
	}
	cur, ref := shiftedPair(t, 96, 96, 2, 1)
	small := codec.Surface{Plane: video.NewPlane(40, 96), VBase: ref.VBase}
	for _, c := range []struct {
		name          string
		ref           codec.Surface
		bx, by, w, rg int
		pred          codec.MV
	}{
		{"interior", ref, 40, 40, 16, 8, codec.MV{X: 3, Y: -3}},
		{"corner", ref, 0, 0, 16, 12, codec.MV{X: -9, Y: -9}},
		{"far-corner", ref, 80, 80, 16, 20, codec.MV{X: 30, Y: 30}},
		{"past-stack-range", ref, 40, 40, 8, stackRange + 5, codec.MV{}},
		{"narrow-reference", small, 72, 40, 8, 6, codec.MV{X: 2}},
		{"bad-range", ref, 40, 40, 16, 0, codec.MV{}},
	} {
		for _, alg := range []Algorithm{Full, Diamond, Hex, Algorithm(9)} {
			tracetest.CountMatchesRecorded(t, fmt.Sprintf("%s/%v", c.name, alg), trace.StageQuant, func(tc *trace.Ctx) out {
				res, err := Search(tc, alg, cur, c.bx, c.by, c.ref, c.w, c.w, c.rg, c.pred)
				return out{res, err}
			})
		}
	}
}

var sadSink int32

// BenchmarkSAD times one 16×16 SAD with no context (nil), a count-only
// one (count) and a recording one (record).
func BenchmarkSAD(b *testing.B) {
	cur, ref := video.NewPlane(64, 64), video.NewPlane(64, 64)
	for i := range cur.Pix {
		cur.Pix[i], ref.Pix[i] = byte(i*7), byte(i*13)
	}
	cs, rs := codec.Surface{Plane: cur}, codec.Surface{Plane: ref}
	for _, mode := range []string{"nil", "count", "record"} {
		b.Run(mode, func(b *testing.B) {
			var tc *trace.Ctx
			if mode != "nil" {
				tc = trace.New()
			}
			if mode == "record" {
				tc.AttachRecorder(&trace.Recorder{})
			}
			sadSink, _ = SAD(tc, cs, 16, 16, rs, 17, 15, 16, 16) // the first Enter grows the call stack
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sadSink, _ = SAD(tc, cs, 16, 16, rs, 17, 15, 16, 16)
			}
		})
	}
}

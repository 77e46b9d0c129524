package encoders

import (
	"context"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// TestCountOnlyEncodeMatchesHooked is the contract of the kernels'
// count-only path: every family at its fastest preset and at a middle
// one, and SVT-AV1 at its slowest (the one point here that runs the
// full motion search; on a quarter-size clip to keep it quick), over a
// keyframe and two inter frames, returns the same Result — bitstream,
// Mix, Insts, WorkerInsts, per-frame stage counts and all the rest —
// on a count-only context as on one with a Recorder attached, which is
// told every event.
func TestCountOnlyEncodeMatchesHooked(t *testing.T) {
	clip, small := testClip(t, "game1", 3, 16), testClip(t, "game1", 3, 32)
	for _, fam := range Families() {
		enc := MustNew(fam)
		lo, hi, reversed := enc.PresetRange()
		fastest := hi
		if reversed {
			fastest = lo
		}
		type point struct {
			preset int
			clip   *video.Clip
		}
		points := []point{{fastest, clip}, {(lo + hi) / 2, clip}}
		if fam == SVTAV1 {
			points = append(points, point{lo, small})
		}
		for _, pt := range points {
			preset, clip := pt.preset, pt.clip
			encode := func(newCtx func() *trace.Ctx) *Result {
				res, err := enc.Encode(context.Background(), clip, Options{
					CRF: 30, Preset: preset, KeepBitstream: true,
					NewWorkerCtx: func(int) *trace.Ctx { return newCtx() },
				})
				if err != nil {
					t.Fatalf("%s preset %d: %v", fam, preset, err)
				}
				return res
			}
			rec := &trace.Recorder{}
			count := encode(trace.New)
			hooked := encode(func() *trace.Ctx {
				tc := trace.New()
				tc.AttachRecorder(rec)
				return tc
			})
			if len(count.KeyFrames) != 1 || len(count.FrameStages) != 3 || count.Insts == 0 {
				t.Fatalf("%s preset %d: keyframes %v, %d frames, %d instructions; want one keyframe of three frames, counted",
					fam, preset, count.KeyFrames, len(count.FrameStages), count.Insts)
			}
			if rec.Tape.Total() != hooked.Insts {
				t.Fatalf("%s preset %d: the tape holds %d instructions, the Result counts %d", fam, preset, rec.Tape.Total(), hooked.Insts)
			}
			if d := resultDiff(count, hooked); d != nil {
				t.Errorf("%s preset %d: the count-only Result differs from the hooked one in %v (Mix %v vs %v)",
					fam, preset, d, count.Mix, hooked.Mix)
			}
		}
	}
}

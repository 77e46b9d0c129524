package encoders

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"vcprof/internal/codec/entropy"
	"vcprof/internal/codec/kernel/kerneltest"
	"vcprof/internal/codec/quant"
	"vcprof/internal/codec/transform"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// TestCountOnlyEncodeMatchesHooked is the contract of the kernels'
// count-only path and of the partition search's leaf memo. Every family
// at its fastest preset and at a middle one, SVT-AV1 and libaom at each
// preset that searches HORZ_A/B and VERT_A/B (the shapes whose
// sub-blocks a count-only search decides once and replays; on small
// clips to keep presets 0–2's full motion search quick), and
// x265 at a transform-split preset, over a keyframe and two inter
// frames, returns the same Result — bitstream, Mix, Insts, WorkerInsts,
// per-frame stage counts and all the rest — on a count-only context as
// on one with a Recorder and a sink attached, which is told every event
// and decides every leaf. A context whose only hook is a Recorder
// decides each shared leaf once and copies its tape records for a
// repeat: it returns the same Result, and its tape equals the
// decide-every-leaf tape record for record, on points that outgrow the
// tape's ring (SVT-AV1 preset 0 records ~63 M instructions) as on the
// others. A nil context, which reuses leaves too, codes the same Result
// but for the instrumentation.
func TestCountOnlyEncodeMatchesHooked(t *testing.T) {
	clip, small, tiny := testClip(t, "game1", 3, 16), testClip(t, "game1", 3, 32), testClip(t, "game1", 3, 48)
	outgrown := false
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
		mid := (lo + hi) / 2
		points := []point{{fastest, clip}, {mid, clip}}
		switch fam {
		case SVTAV1, Libaom:
			for p := lo; p < mid; p++ {
				c := tiny
				if fam == SVTAV1 && p == lo {
					c = small // the full motion search over more than two superblocks
				}
				points = append(points, point{p, c})
			}
		case X265:
			points = append(points, point{6, small})
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
			recording := func(rec *trace.Recorder, sink bool) func() *trace.Ctx {
				return func() *trace.Ctx {
					tc := trace.New()
					tc.AttachRecorder(rec)
					if sink {
						tc.AttachBranchSink(nopSink{})
					}
					return tc
				}
			}
			every, copied := &trace.Recorder{}, &trace.Recorder{}
			count := encode(trace.New)
			hooked := encode(recording(every, true))
			recorded := encode(recording(copied, false))
			if len(count.KeyFrames) != 1 || len(count.FrameStages) != 3 || count.Insts == 0 {
				t.Fatalf("%s preset %d: keyframes %v, %d frames, %d instructions; want one keyframe of three frames, counted",
					fam, preset, count.KeyFrames, len(count.FrameStages), count.Insts)
			}
			for _, arm := range []struct {
				name string
				rec  *trace.Recorder
				res  *Result
			}{{"hooked", every, hooked}, {"recorder-only", copied, recorded}} {
				if arm.rec.Tape.Total() != arm.res.Insts {
					t.Fatalf("%s preset %d: the %s tape holds %d instructions, the Result counts %d",
						fam, preset, arm.name, arm.rec.Tape.Total(), arm.res.Insts)
				}
				if d := resultDiff(count, arm.res); d != nil {
					t.Errorf("%s preset %d: the count-only Result differs from the %s one in %v (Mix %v vs %v)",
						fam, preset, arm.name, d, count.Mix, arm.res.Mix)
				}
			}
			if msg := tapeDiff(&copied.Tape, &every.Tape); msg != "" {
				t.Errorf("%s preset %d: the recorder-only tape differs from the decide-every-leaf one: %s", fam, preset, msg)
			}
			outgrown = outgrown || !every.Tape.Holds(0, 1)
			plain := encode(func() *trace.Ctx { return nil })
			if plain.Insts != 0 {
				t.Fatalf("%s preset %d: a nil context counted %d instructions", fam, preset, plain.Insts)
			}
			plain.Mix, plain.Insts, plain.WorkerInsts, plain.FrameStages = hooked.Mix, hooked.Insts, hooked.WorkerInsts, hooked.FrameStages
			if d := resultDiff(plain, hooked); d != nil {
				t.Errorf("%s preset %d: the nil-context Result differs from the hooked one in %v", fam, preset, d)
			}
		}
	}
	if !outgrown {
		t.Error("no point outgrew the tape's ring: the copy's ring handling went unchecked")
	}
}

// tapeDiff compares two tapes record for record over everything each
// holds, and describes the first difference ("" if none).
func tapeDiff(got, want *trace.Tape) string {
	total := want.Total()
	if got.Total() != total || got.Bytes() != want.Bytes() {
		return fmt.Sprintf("%d instructions in %d bytes, want %d in %d", got.Total(), got.Bytes(), total, want.Bytes())
	}
	from := heldFrom(want)
	if heldFrom(got) != from {
		return fmt.Sprintf("holds from instruction %d, want %d", heldFrom(got), from)
	}
	gc, wc := got.Window(from, total-from).Cursor(), want.Window(from, total-from).Cursor()
	var g, w trace.Run
	for i := 0; wc.Next(&w); i++ {
		if !gc.Next(&g) || g != w {
			return fmt.Sprintf("record %d after instruction %d: %+v, want %+v", i, from, g, w)
		}
	}
	if gc.Next(&g) {
		return fmt.Sprintf("an extra record %+v", g)
	}
	return ""
}

// heldFrom returns the first instruction of the run a tape still holds.
func heldFrom(tape *trace.Tape) uint64 {
	total := tape.Total()
	return uint64(sort.Search(int(total), func(i int) bool { return tape.Holds(uint64(i), total-uint64(i)) }))
}

// nopSink takes every event run and does nothing with it: a hooked
// context whose sinks cost only their dispatch.
type nopSink struct{}

func (nopSink) Branch(trace.PC, bool)           {}
func (nopSink) Loop(trace.PC, int)              {}
func (nopSink) Access(uint64, int, bool)        {}
func (nopSink) Run(uint64, int, int, int, bool) {}

// BenchmarkEncodeServed times the encode a served job runs: SVT-AV1 at
// preset 4, whose partition search reuses leaf decisions, over a small
// clip on one thread. count is the served path, a count-only context
// per worker; hooked attaches a branch and a memory sink that do no
// work, so every leaf is decided again and every event dispatched.
func BenchmarkEncodeServed(b *testing.B) {
	clip := testClip(b, "game1", 4, 16)
	enc := MustNew(SVTAV1)
	for _, bc := range []struct {
		name   string
		newCtx func() *trace.Ctx
	}{
		{"count", trace.New},
		{"hooked", func() *trace.Ctx {
			tc := trace.New()
			tc.AttachBranchSink(nopSink{})
			tc.AttachMemSink(nopSink{})
			return tc
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{CRF: 30, Preset: 4, Threads: 1,
				NewWorkerCtx: func(int) *trace.Ctx { return bc.newCtx() }}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteCoefBlock times writeCoefBlock on the levels an encode
// codes: kerneltest's clip residual, transformed and quantized at
// qindex 120, cycled block by block for each transform size. nil codes
// with no context, count on a count-only one (one tally per block) and
// record on a recording one (every bit's events to the tape). Each pass
// over the blocks starts a fresh encoder and context, so the tape holds
// one pass at most.
func BenchmarkWriteCoefBlock(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		blocks := kerneltest.ClipResiduals(b, n)
		for _, blk := range blocks {
			if err := transform.Forward(nil, blk, n, blk); err != nil {
				b.Fatal(err)
			}
			if _, err := quant.Quantize(nil, blk, 120, blk); err != nil {
				b.Fatal(err)
			}
		}
		for _, mode := range []string{"nil", "count", "record"} {
			b.Run(fmt.Sprintf("%s/%d", mode, n*n), func(b *testing.B) {
				var enc *entropy.Encoder
				pm := newProbModel()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % len(blocks)
					if k == 0 {
						var tc *trace.Ctx
						if mode != "nil" {
							tc = trace.New()
						}
						if mode == "record" {
							tc.AttachRecorder(&trace.Recorder{})
						}
						enc = newEncoder(tc, 0x9000)
					}
					if err := writeCoefBlock(enc, pm, blocks[k], n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package perf

import (
	"context"
	"fmt"

	"vcprof/internal/encoders"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// DefaultWindowOps is the default micro-op window length for trace
// recording. The paper records 1 billion instructions from runs of
// ~10¹¹; the same ~1% proportion at our scale is a few hundred thousand
// ops, and the cap keeps pipeline replay fast.
const DefaultWindowOps = 400_000

// RecordWindow is the Pin substitute: it runs the encode with the
// instruction stream going onto the recorder's tape, and then cuts a
// micro-op window of up to limit ops starting at fraction frac of the
// run (the paper uses a window "roughly halfway through the encoding
// run", frac = 0.5). The run's length is known only at its end, which
// is why the window is placed afterwards: a counting encode beforehand
// would add 0.50–0.57× of the recording encode's time (summed over
// vcbench replay_grid's 20 points, best of three, on a 2-vCPU Xeon).
// The tape is aimed at the window (Tape.Aim), so it keeps what the
// window can still start in, not the run. The recording context has no
// sink, so it copies the records of a repeated leaf decision instead of
// deciding it again (encoders' decideLeaf).
// A tape keeps the most recent 32 MB of a run, though; when the run
// outgrows that and the window has slid off the tape, the encode is run
// once more with the tape told the window. Encodes are deterministic,
// so both runs see identical streams.
func RecordWindow(ctx context.Context, enc encoders.Encoder, clip *video.Clip, opts encoders.Options, frac float64, limit uint64) (*trace.Recorder, uint64, error) {
	if enc == nil || clip == nil {
		return nil, 0, fmt.Errorf("perf: nil encoder or clip")
	}
	if frac < 0 || frac >= 1 {
		return nil, 0, fmt.Errorf("perf: window fraction %v out of [0, 1)", frac)
	}
	if limit == 0 {
		limit = DefaultWindowOps
	}
	opts.Threads = 1
	// Window recording needs the inline path's stable instruction
	// order so the recorded [start, start+limit) slice is well-defined.
	opts.Pool = nil
	record := func(rec *trace.Recorder) error {
		tc := trace.New()
		tc.AttachRecorder(rec)
		opts.NewWorkerCtx = func(int) *trace.Ctx { return tc }
		_, err := enc.Encode(ctx, clip, opts)
		return err
	}
	rec := &trace.Recorder{}
	rec.Tape.Aim(frac, limit)
	if err := record(rec); err != nil {
		return nil, 0, err
	}
	total := rec.Tape.Total()
	if total == 0 {
		return nil, 0, fmt.Errorf("perf: encode produced no instructions")
	}
	limit = min(limit, total)
	start := trace.Place(total, frac, limit)
	if !rec.Tape.Holds(start, limit) {
		rec = &trace.Recorder{}
		rec.Tape.Keep(start, limit)
		if err := record(rec); err != nil {
			return nil, 0, err
		}
	}
	rec.Cut(start, limit)
	if rec.Ops.Len() == 0 {
		return nil, 0, fmt.Errorf("perf: recorded window is empty (total=%d start=%d limit=%d)", total, start, limit)
	}
	return rec, total, nil
}

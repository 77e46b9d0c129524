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

// RecordWindow is the Pin substitute: it runs the encode once to count
// total instructions, then reruns it recording a micro-op window of up
// to limit ops starting at fraction frac of the run (the paper uses a
// window "roughly halfway through the encoding run", frac = 0.5).
// Encodes are deterministic, so the two runs see identical streams.
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
	countCtx := trace.New()
	opts.Threads = 1
	// Window recording needs the inline path's stable instruction
	// order so the recorded [start, start+limit) slice is well-defined.
	opts.Pool = nil
	opts.NewWorkerCtx = func(int) *trace.Ctx { return countCtx }
	if _, err := enc.Encode(ctx, clip, opts); err != nil {
		return nil, 0, err
	}
	total := countCtx.Total()
	if total == 0 {
		return nil, 0, fmt.Errorf("perf: encode produced no instructions")
	}
	start := uint64(float64(total) * frac)
	if start+limit > total {
		if limit > total {
			limit = total
		}
		start = total - limit
	}
	rec := trace.NewRecorder(start, limit)
	// start+limit <= total, so the window fills exactly: size it once.
	// Grown by append, a 1M-op window allocated ~120 MB to end at 24 MB,
	// and the copying and collection that came with it were 40% of a
	// replay's CPU and most of its run-to-run spread.
	rec.Ops = make([]trace.MicroOp, 0, limit)
	recCtx := trace.New()
	recCtx.AttachRecorder(rec)
	opts.NewWorkerCtx = func(int) *trace.Ctx { return recCtx }
	if _, err := enc.Encode(ctx, clip, opts); err != nil {
		return nil, 0, err
	}
	if len(rec.Ops) == 0 {
		return nil, 0, fmt.Errorf("perf: recorded window is empty (total=%d start=%d limit=%d)", total, start, limit)
	}
	return rec, total, nil
}

// Profile is the gprof substitute: it runs the encode with per-function
// accounting and returns the flat profile.
func Profile(ctx context.Context, enc encoders.Encoder, clip *video.Clip, opts encoders.Options) (*trace.Profile, error) {
	if enc == nil || clip == nil {
		return nil, fmt.Errorf("perf: nil encoder or clip")
	}
	prof := trace.NewProfile()
	tc := trace.New()
	tc.AttachProfile(prof)
	opts.Threads = 1
	opts.Pool = nil
	opts.NewWorkerCtx = func(int) *trace.Ctx { return tc }
	if _, err := enc.Encode(ctx, clip, opts); err != nil {
		return nil, err
	}
	return prof, nil
}

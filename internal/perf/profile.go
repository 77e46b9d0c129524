package perf

import (
	"context"
	"fmt"

	"vcprof/internal/encoders"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

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

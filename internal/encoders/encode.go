package encoders

import (
	"context"
	"fmt"
	"time"

	"vcprof/internal/metrics"
	"vcprof/internal/sched"
	"vcprof/internal/video"
)

// Encode runs the model on the clip. It is safe for concurrent use with
// distinct clips and options. The bitstream size, reconstruction,
// quality metrics and (if instrumented) instruction-level counters are
// returned in the Result. Cancelling ctx aborts the encode at the next
// task boundary and returns ctx's error, so a killed job stops burning
// its worker instead of running to completion.
func (m *model) Encode(ctx context.Context, clip *video.Clip, opts Options) (*Result, error) {
	if err := m.validate(clip, opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	se, err := newStreamEncoder(m.spec, clip, opts)
	if err != nil {
		return nil, err
	}
	// No pool and one lane runs inline on this goroutine; anything else
	// runs on a pool, the caller's or a transient one Threads wide.
	pool := opts.Pool
	if pool == nil && opts.Threads > 1 {
		pool = sched.NewPool(sched.Config{Workers: opts.Threads})
		defer pool.Close()
	}
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	ws, err := newWorkerSet(se, opts, workers)
	if err != nil {
		return nil, err
	}
	g, err := se.buildGraph(ws)
	if err != nil {
		return nil, err
	}
	//lint:ignore detnow,detflow Result.Wall is host wall-clock by contract (live-run reporting); tables use modeled cycles (harness.cycleMS), never this value
	start := time.Now()
	if pool == nil {
		err = runInline(ctx, g, ws)
	} else {
		err = runSharded(ctx, g, ws, pool)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start) //lint:ignore detnow,detflow same contract as above: informational Result.Wall only

	if c := opts.AnalysisPublish; c != nil {
		c.seal()
	}
	return m.assemble(se, ws, clip, wall)
}

// assemble collects the Result from a completed stream encode.
func (m *model) assemble(se *streamEncoder, ws *workerSet, clip *video.Clip, wall time.Duration) (*Result, error) {
	res := &Result{Family: m.spec.family, Wall: wall}
	for _, pic := range se.pics {
		res.Bytes += pic.bytes
		res.FrameBytes = append(res.FrameBytes, pic.bytes)
		res.Recon = append(res.Recon, se.cropRecon(pic))
		res.QIndices = append(res.QIndices, pic.qindex)
		for i, n := range pic.shapeCount {
			res.Shapes[i] += n
		}
		res.SkipBlocks += pic.skipCount
		if pic.isKey {
			res.KeyFrames = append(res.KeyFrames, pic.index)
		}
		res.FrameStages = append(res.FrameStages, pic.stages)
		if pic.intraGrid != nil {
			var sum uint64
			for _, v := range pic.intraGrid {
				sum += uint64(v)
			}
			res.IntraCosts = append(res.IntraCosts, sum)
		}
	}
	var err error
	if res.PSNR, err = metrics.SequencePSNR(clip.Frames, res.Recon); err != nil {
		return nil, err
	}
	if res.SSIM, err = metrics.SequenceSSIM(clip.Frames, res.Recon); err != nil {
		return nil, err
	}
	fps := clip.Meta.FPS
	if fps <= 0 {
		fps = 30
	}
	if res.BitrateKbps, err = metrics.BitrateKbps(res.Bytes, len(clip.Frames), fps); err != nil {
		return nil, err
	}
	for _, tc := range ws.ctxs {
		if tc == nil {
			continue
		}
		res.Mix.Add(&tc.Mix)
		res.Insts += tc.Total()
		res.WorkerInsts = append(res.WorkerInsts, tc.Total())
	}
	if se.opts.KeepBitstream {
		bs, err := se.assembleBitstream()
		if err != nil {
			return nil, err
		}
		res.Bitstream = bs
	}
	return res, nil
}

// ProfileSchedule runs the encode once, serially, measuring the
// instruction cost of every task of the family's threading architecture
// and returning the dependence graph for makespan simulation. This is
// the thread-scalability substitute: Schedule.Speedup(n) predicts the
// paper's wall-clock speedup on an n-core machine from the measured
// work distribution.
func ProfileSchedule(ctx context.Context, enc Encoder, clip *video.Clip, opts Options) (*Schedule, *Result, error) {
	m, ok := enc.(*model)
	if !ok {
		return nil, nil, fmt.Errorf("encoders: ProfileSchedule requires a model encoder")
	}
	opts.Threads = 1
	if err := m.validate(clip, opts); err != nil {
		return nil, nil, err
	}
	se, err := newStreamEncoder(m.spec, clip, opts)
	if err != nil {
		return nil, nil, err
	}
	ws, err := newWorkerSet(se, opts, 1)
	if err != nil {
		return nil, nil, err
	}
	g, err := se.buildGraph(ws)
	if err != nil {
		return nil, nil, err
	}
	costs, err := runProfiled(ctx, g, ws)
	if err != nil {
		return nil, nil, err
	}
	sc := &Schedule{Costs: costs}
	for _, t := range g.tasks {
		sc.Deps = append(sc.Deps, t.deps)
		sc.Names = append(sc.Names, t.name)
	}
	res, err := m.assemble(se, ws, clip, 0)
	if err != nil {
		return nil, nil, err
	}
	return sc, res, nil
}

// cropRecon extracts the unpadded reconstruction of a picture.
func (se *streamEncoder) cropRecon(pic *picture) *video.Frame {
	f := &video.Frame{
		Y:     cropPlane(pic.recY.Plane, se.w, se.h),
		U:     cropPlane(pic.recU.Plane, se.w/2, se.h/2),
		V:     cropPlane(pic.recV.Plane, se.w/2, se.h/2),
		Index: pic.index,
	}
	return f
}

func cropPlane(p *video.Plane, w, h int) *video.Plane {
	out := video.NewPlane(w, h)
	for y := 0; y < h; y++ {
		copy(out.Row(y), p.Row(y)[:w])
	}
	return out
}

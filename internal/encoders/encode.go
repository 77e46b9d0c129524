package encoders

import (
	"context"
	"fmt"
	"time"

	"vcprof/internal/metrics"
	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// Encode runs the model on the clip. It is safe for concurrent use with
// distinct clips and options. The bitstream size, quality metrics and
// (if instrumented) instruction-level counters are returned in the
// Result. Cancelling ctx aborts the encode at the next
// task boundary and returns ctx's error, so a killed job stops burning
// its worker instead of running to completion. The encode works in a
// working set from the free list, given back once the Result is
// assembled and dropped on any error.
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
	//lint:ignore detflow Result.Wall is host wall-clock by contract (live-run reporting); tables use modeled cycles (harness.cycleMS), never this value
	start := time.Now()
	if pool == nil {
		err = runInline(ctx, g, ws)
	} else {
		err = runSharded(ctx, g, ws, pool)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start) //lint:ignore detflow same contract as above: informational Result.Wall only

	if c := opts.AnalysisPublish; c != nil {
		c.seal()
	}
	res, err := m.assemble(se, ws, clip, wall)
	if err != nil {
		return nil, err
	}
	se.set.release()
	return res, nil
}

// assemble collects the Result from a completed stream encode. PSNR
// and SSIM read each picture's reconstruction in place, through views
// of its padded surfaces that the working set keeps.
func (m *model) assemble(se *streamEncoder, ws *workerSet, clip *video.Clip, wall time.Duration) (*Result, error) {
	n := len(se.pics)
	res := &Result{Family: m.spec.family, Wall: wall,
		FrameBytes: make([]int, 0, n), QIndices: make([]int, 0, n), FrameStages: make([]trace.StageCounts, 0, n)}
	if se.opts.AnalyzeIntra {
		res.IntraCosts = make([]uint64, 0, n)
	}
	recon := se.set.recon[:0]
	for _, pic := range se.pics {
		res.Bytes += pic.bytes
		res.FrameBytes = append(res.FrameBytes, pic.bytes)
		recon = append(recon, pic.reconView(se.w, se.h))
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
	se.set.recon = recon
	if out := se.opts.recon; out != nil {
		*out = make([]*video.Frame, len(se.pics))
		for i, pic := range se.pics {
			(*out)[i] = se.cropRecon(pic)
		}
	}
	var err error
	if res.PSNR, err = metrics.SequencePSNR(clip.Frames, recon); err != nil {
		return nil, err
	}
	if res.SSIM, err = metrics.SequenceSSIM(clip.Frames, recon); err != nil {
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
	for i := range g.tasks {
		t := &g.tasks[i]
		sc.Deps = append(sc.Deps, append([]int(nil), t.deps...))
		sc.Names = append(sc.Names, t.name())
	}
	res, err := m.assemble(se, ws, clip, 0)
	if err != nil {
		return nil, nil, err
	}
	se.set.release()
	return sc, res, nil
}

// reconView points the picture's view frame at the w×h corner of its
// reconstruction: the unpadded picture, read in place.
func (p *picture) reconView(w, h int) *video.Frame {
	p.viewY = window(p.recY.Plane, w, h)
	p.viewU = window(p.recU.Plane, w/2, h/2)
	p.viewV = window(p.recV.Plane, w/2, h/2)
	p.view = video.Frame{Y: &p.viewY, U: &p.viewU, V: &p.viewV, Index: p.index}
	return &p.view
}

// window is the w×h top-left corner of p, sharing p's samples.
func window(p *video.Plane, w, h int) video.Plane {
	return video.Plane{W: w, H: h, Stride: p.Stride, Pix: p.Pix}
}

// cropRecon copies the unpadded reconstruction of a picture (only for
// Options.recon).
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

// Package core is vcprof's public API: a characterization laboratory
// that couples the procedural vbench workloads, the five encoder
// models, the perf/Pin/gprof instrumentation substitutes, the
// microarchitecture simulators and the paper's experiment harness
// behind one façade. Examples and command-line tools are thin clients
// of this package.
//
// Typical use:
//
//	lab, _ := core.NewLab()
//	res, _ := lab.Encode(core.SVTAV1, "game1", 35, 4, 1)
//	stat, _ := lab.Characterize(core.SVTAV1, "game1", 35, 4)
//	tables, _ := lab.Experiment("fig4")
package core

import (
	"context"
	"fmt"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/video"
)

// Re-exported encoder families.
const (
	SVTAV1 = encoders.SVTAV1
	X264   = encoders.X264
	X265   = encoders.X265
	Libaom = encoders.Libaom
	VP9    = encoders.VP9
)

// Family aliases the encoder family type.
type Family = encoders.Family

// Lab is a configured characterization laboratory.
type Lab struct {
	scale harness.Scale
}

// Option configures a Lab.
type Option func(*Lab) error

// WithScale replaces the workload scale.
func WithScale(s harness.Scale) Option {
	return func(l *Lab) error {
		if err := s.Validate(); err != nil {
			return err
		}
		l.scale = s
		return nil
	}
}

// WithQuickScale selects the fast three-clip scale used by benchmarks.
func WithQuickScale() Option {
	return WithScale(harness.QuickScale())
}

// NewLab builds a laboratory at the default scale.
func NewLab(opts ...Option) (*Lab, error) {
	l := &Lab{scale: harness.DefaultScale()}
	for _, o := range opts {
		if err := o(l); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Scale returns the lab's workload scale.
func (l *Lab) Scale() harness.Scale { return l.scale }

// Clip returns the procedural clip for a vbench name at the lab scale.
func (l *Lab) Clip(name string) (*video.Clip, error) {
	return l.scale.Clip(name)
}

// Encoder returns the model for a family.
func (l *Lab) Encoder(fam Family) (encoders.Encoder, error) {
	return encoders.New(fam)
}

// Encode runs one instrumented encode and returns the full result,
// including PSNR, bitrate, wall time and the dynamic instruction mix.
func (l *Lab) Encode(fam Family, clipName string, crf, preset, threads int) (*encoders.Result, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.Clip(clipName)
	if err != nil {
		return nil, err
	}
	return enc.Encode(context.Background(), clip, encoders.Options{
		CRF: crf, Preset: preset, Threads: threads,
		NewWorkerCtx: func(int) *trace.Ctx { return trace.New() },
	})
}

// EncodeWith runs an encode with full control over the options (ABR
// rate control, scene-cut keyframes, bitstream retention, threads).
func (l *Lab) EncodeWith(fam Family, clipName string, opts encoders.Options) (*encoders.Result, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.Clip(clipName)
	if err != nil {
		return nil, err
	}
	if opts.NewWorkerCtx == nil {
		opts.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
	}
	return enc.Encode(context.Background(), clip, opts)
}

// Decode decodes a bitstream container produced by an encode with
// KeepBitstream set.
func (l *Lab) Decode(bitstream []byte) ([]*video.Frame, error) {
	return encoders.DecodeBitstream(bitstream)
}

// Characterize runs the perf-stat substitute: a single-threaded encode
// with a live branch predictor and the Xeon cache hierarchy attached,
// returning counters, IPC, MPKIs and the top-down breakdown.
func (l *Lab) Characterize(fam Family, clipName string, crf, preset int) (*perf.Counters, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.Clip(clipName)
	if err != nil {
		return nil, err
	}
	return perf.Stat(context.Background(), enc, clip, encoders.Options{CRF: crf, Preset: preset})
}

// Profile runs the gprof substitute and returns the flat profile.
func (l *Lab) Profile(fam Family, clipName string, crf, preset int) (*trace.Profile, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.Clip(clipName)
	if err != nil {
		return nil, err
	}
	return perf.Profile(context.Background(), enc, clip, encoders.Options{CRF: crf, Preset: preset})
}

// RecordWindow records a micro-op window (the Pin substitute) from
// halfway through an encode.
func (l *Lab) RecordWindow(fam Family, clipName string, crf, preset int) (*trace.Recorder, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.Clip(clipName)
	if err != nil {
		return nil, err
	}
	rec, _, err := perf.RecordWindow(context.Background(), enc, clip, encoders.Options{CRF: crf, Preset: preset}, 0.5, l.scale.WindowOps)
	return rec, err
}

// ReplayPipeline replays a recorded window through the out-of-order
// core model of the paper's machine.
func (l *Lab) ReplayPipeline(rec *trace.Recorder) (*pipeline.Result, error) {
	if rec == nil || rec.Ops.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace window")
	}
	sim, err := pipeline.New(pipeline.Broadwell())
	if err != nil {
		return nil, err
	}
	return sim.Run(rec.Ops)
}

// BranchChampionship records a window from an SVT-AV1 encode of the
// clip and scores the requested predictors on it (nil = the paper's
// four: gshare 2KB/32KB, TAGE 8KB/64KB).
func (l *Lab) BranchChampionship(clipName string, crf, preset int, predictors []string) ([]cbp.Score, error) {
	if predictors == nil {
		predictors = bpred.PaperSet()
	}
	rec, err := l.RecordWindow(SVTAV1, clipName, crf, preset)
	if err != nil {
		return nil, err
	}
	tr, err := cbp.FromRecorder(clipName, rec)
	if err != nil {
		return nil, err
	}
	return cbp.Championship(predictors, []cbp.Trace{tr})
}

// SweepPoint is one operating point of a CRF or preset sweep.
type SweepPoint struct {
	CRF    int
	Preset int
	Stat   *perf.Counters
}

// CRFSweep characterizes the encoder across the lab's CRF grid.
func (l *Lab) CRFSweep(fam Family, clipName string, preset int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, crf := range l.scale.CRFs {
		st, err := l.Characterize(fam, clipName, crf, preset)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{CRF: crf, Preset: preset, Stat: st})
	}
	return out, nil
}

// PresetSweep characterizes the encoder across its full preset range at
// a fixed CRF.
func (l *Lab) PresetSweep(fam Family, clipName string, crf int) ([]SweepPoint, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	lo, hi, _ := enc.PresetRange()
	var out []SweepPoint
	for p := lo; p <= hi; p++ {
		st, err := l.Characterize(fam, clipName, crf, p)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{CRF: crf, Preset: p, Stat: st})
	}
	return out, nil
}

// ThreadPoint is one point of a thread-scaling measurement.
type ThreadPoint struct {
	Threads int
	// Work is the simulated makespan in instruction units.
	Work uint64
	// Speedup is serial work over makespan.
	Speedup float64
	// Imbalance is threads divided by speedup (1 = fully utilized).
	Imbalance float64
}

// ThreadSweep profiles the encoder's task-graph schedule once on the
// larger thread-scaling workload and simulates its makespan at every
// thread count of the lab's grid — the substitution for wall-clock
// scaling runs on a multicore machine (see DESIGN.md §1).
func (l *Lab) ThreadSweep(fam Family, clipName string, crf, preset int) ([]ThreadPoint, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return nil, err
	}
	clip, err := l.scale.ThreadClip(clipName)
	if err != nil {
		return nil, err
	}
	sched, _, err := encoders.ProfileSchedule(context.Background(), enc, clip, encoders.Options{CRF: crf, Preset: preset})
	if err != nil {
		return nil, err
	}
	var out []ThreadPoint
	for _, th := range l.scale.Threads {
		span, _, err := sched.Makespan(th)
		if err != nil {
			return nil, err
		}
		sp, err := sched.Speedup(th)
		if err != nil {
			return nil, err
		}
		imb, err := sched.Imbalance(th)
		if err != nil {
			return nil, err
		}
		out = append(out, ThreadPoint{Threads: th, Work: span, Speedup: sp, Imbalance: imb})
	}
	return out, nil
}

// Experiment runs one of the paper's registered tables/figures.
func (l *Lab) Experiment(id string) ([]*harness.Table, error) {
	e, err := harness.Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(l.scale)
}

// Experiments lists the registered experiment IDs and titles.
func (l *Lab) Experiments() []harness.Experiment { return harness.List() }

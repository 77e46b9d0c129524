// Package encoders implements the five encoder models the paper
// studies — SVT-AV1, x264, x265, libaom and libvpx-vp9 — on top of the
// shared codec toolkit. The models do real block-based hybrid encoding
// (motion estimation, intra prediction, transform, quantization,
// adaptive range coding, reconstruction and deblocking); they differ in
// the codec family's search-space shape (partition shapes, intra mode
// counts, reference counts, transform-search depth), in CRF/preset
// ranges and direction, and in threading architecture. Those structural
// differences — not hand-tuned constants — produce the paper's headline
// effects: the AV1 family's instruction-count explosion, CRF-dependent
// effort, and the disparate thread-scaling curves.
package encoders

import (
	"context"
	"fmt"
	"time"

	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// Family identifies a codec family / encoder implementation model.
type Family string

// The five encoders of the paper.
const (
	SVTAV1 Family = "svt-av1"
	X264   Family = "x264"
	X265   Family = "x265"
	Libaom Family = "libaom"
	VP9    Family = "libvpx-vp9"
)

// Families lists all encoder models in the paper's presentation order.
func Families() []Family {
	return []Family{X264, X265, VP9, Libaom, SVTAV1}
}

// Options configures one encode run.
type Options struct {
	// CRF is the constant-rate-factor quality target. Range depends on
	// the family: 0–63 for the AV1/VP9 family, 0–51 for x264/x265; lower
	// is higher quality everywhere.
	CRF int
	// Preset is the speed preset. AV1/VP9 family: 0 (slowest) to 8
	// (fastest). x264/x265: 0 (fastest) to 9 (slowest) — the reversed
	// direction the paper notes in §3.3.
	Preset int
	// Threads is the number of attribution lanes: instrumented work is
	// split over that many worker contexts by task index, and
	// Result.WorkerInsts has one entry per lane. It never changes the
	// bitstream or any total. 0 means the default of 1 everywhere —
	// Encode, validation, and cache keys treat the two spellings as the
	// same encode. Threads > 1 without a Pool runs the task graph on a
	// transient pool that wide.
	Threads int
	// NewWorkerCtx, when non-nil, supplies the instrumentation context
	// of each lane. Lane 0 exists in every run. Contexts are merged into
	// Result.Mix after the encode. Sinks attached to a context see
	// events only on the inline path (no Pool, Threads <= 1); on a pool
	// each task counts privately and only totals are merged in.
	NewWorkerCtx func(worker int) *trace.Ctx
	// Pool, when non-nil, runs the encode's task graph on that shared
	// scheduler instead of the calling goroutine. Results are
	// byte-identical either way: the graph carries every true
	// dependence, and instrumentation is merged by task index.
	Pool *sched.Pool
	// KeyInterval inserts a keyframe every n frames (0 = only frame 0).
	KeyInterval int
	// KeepBitstream assembles the full decodable container into
	// Result.Bitstream (see DecodeBitstream).
	KeepBitstream bool
	// TargetKbps switches from constant-quality (CRF) to average-bitrate
	// control: the frame quantizer adapts to hit this rate and CRF is
	// ignored. Rate decisions depend on completed frames, so ABR
	// serializes the frame pipeline.
	TargetKbps float64
	// SceneCut inserts keyframes at detected scene changes (open-loop
	// lookahead over the source frames), in addition to KeyInterval.
	SceneCut bool
	// AnalyzeIntra extends the open-loop analysis stage with a
	// lookahead intra-cost pass: per analysis cell, a reduced fixed
	// intra mode set is evaluated on downsampled source pixels and the
	// best SATD is reported in Result.IntraCosts. The pass never feeds
	// back into encode decisions (bitstreams are unchanged); it exists
	// for complexity-driven policies (live degrade, rate forecasting)
	// and is shareable across ladder rungs like the motion grid.
	AnalyzeIntra bool
	// AnalysisPublish records this encode's open-loop motion analysis
	// into the cache for later same-source encodes to reuse; Encode
	// seals the cache on success. Mutually exclusive with
	// AnalysisConsume. See AnalysisCache.
	AnalysisPublish *AnalysisCache
	// AnalysisConsume reuses a sealed cache's analysis grids instead of
	// searching, charging only the modeled copy cost — the ABR
	// ladder-share path. The cache must have been published for the
	// same source frames and preset toolset.
	AnalysisConsume *AnalysisCache

	// recon, when non-nil, receives a copy of every picture's
	// reconstruction cropped to the clip's size: the oracle the
	// package's tests compare the decoder against. An encode otherwise
	// reads the reconstruction in place and keeps none of it.
	recon *[]*video.Frame
}

// Result reports the outcome of an encode.
type Result struct {
	Family      Family
	Bytes       int     // total bitstream size
	FrameBytes  []int   // per-frame bitstream sizes
	PSNR        float64 // sequence YUV PSNR vs the source
	SSIM        float64 // sequence luma SSIM vs the source
	BitrateKbps float64
	// Bitstream is the decodable container (only with KeepBitstream).
	Bitstream []byte
	Wall      time.Duration // wall-clock encode time
	// Shapes tallies the committed partition decisions across the whole
	// sequence, indexed by Shape — the search-space usage the paper's
	// §2.2 argument is about. SkipBlocks counts SKIP-coded leaves.
	Shapes     [10]uint64
	SkipBlocks uint64
	// KeyFrames lists the indices coded as keyframes.
	KeyFrames []int
	// QIndices lists the per-frame quantizer indices (constant in CRF
	// mode, adapted in ABR mode).
	QIndices []int
	// Instrumentation results (zero unless NewWorkerCtx was set).
	Mix         trace.Mix
	Insts       uint64
	WorkerInsts []uint64
	// FrameStages is the per-frame, per-pipeline-stage instruction
	// breakdown (motion/intra/transform/quant/entropy/other), summed
	// from task-level snapshots; deterministic across thread counts.
	FrameStages []trace.StageCounts
	// IntraCosts is the per-frame summed open-loop intra SATD (only
	// with AnalyzeIntra; zero for frame 0, which has no analysis pass).
	// Depends only on source pixels — a CRF-independent complexity
	// signal.
	IntraCosts []uint64
}

// Encoder is one encoder model.
type Encoder interface {
	// Family returns the model's identity.
	Family() Family
	// CRFRange returns the inclusive CRF range.
	CRFRange() (lo, hi int)
	// PresetRange returns the inclusive preset range and whether larger
	// presets mean slower encodes (x264/x265 direction).
	PresetRange() (lo, hi int, reversed bool)
	// Encode encodes the clip. Cancelling ctx aborts the encode at the
	// next task boundary (between superblock rows, segments, tiles or
	// frames, depending on the family's threading architecture) and
	// returns the context's error.
	Encode(ctx context.Context, clip *video.Clip, opts Options) (*Result, error)
}

// New returns the encoder model for a family.
func New(f Family) (Encoder, error) {
	spec, ok := specs[f]
	if !ok {
		return nil, fmt.Errorf("encoders: unknown family %q", f)
	}
	return &model{spec: spec}, nil
}

// MustNew is New for known-constant families.
func MustNew(f Family) Encoder {
	e, err := New(f)
	if err != nil {
		panic(err)
	}
	return e
}

type model struct {
	spec familySpec
}

func (m *model) Family() Family { return m.spec.family }

func (m *model) CRFRange() (int, int) { return 0, m.spec.crfMax }

func (m *model) PresetRange() (int, int, bool) {
	return 0, m.spec.presetMax, m.spec.presetReversed
}

func (m *model) validate(clip *video.Clip, opts Options) error {
	if clip == nil {
		return fmt.Errorf("encoders: nil clip")
	}
	if err := clip.Validate(); err != nil {
		return err
	}
	if opts.CRF < 0 || opts.CRF > m.spec.crfMax {
		return fmt.Errorf("encoders: %s CRF %d out of range [0, %d]", m.spec.family, opts.CRF, m.spec.crfMax)
	}
	if opts.Preset < 0 || opts.Preset > m.spec.presetMax {
		return fmt.Errorf("encoders: %s preset %d out of range [0, %d]", m.spec.family, opts.Preset, m.spec.presetMax)
	}
	if opts.Threads < 0 || opts.Threads > 64 {
		return fmt.Errorf("encoders: thread count %d out of range [0, 64]", opts.Threads)
	}
	if opts.KeyInterval < 0 {
		return fmt.Errorf("encoders: negative key interval %d", opts.KeyInterval)
	}
	if opts.TargetKbps < 0 {
		return fmt.Errorf("encoders: negative target bitrate %v", opts.TargetKbps)
	}
	if opts.AnalysisPublish != nil && opts.AnalysisConsume != nil {
		return fmt.Errorf("encoders: AnalysisPublish and AnalysisConsume are mutually exclusive")
	}
	return nil
}

// effort converts a family preset into the internal effort scale where
// 0.0 is the fastest configuration and 1.0 the slowest, normalizing the
// reversed preset direction of x264/x265.
func (s familySpec) effort(preset int) float64 {
	frac := float64(preset) / float64(s.presetMax)
	if s.presetReversed {
		return frac // x264/x265: preset 9 = slowest = effort 1
	}
	return 1 - frac // AV1/VP9: preset 0 = slowest = effort 1
}

package harness

import (
	"context"
	"fmt"

	"vcprof/internal/encoders"
	"vcprof/internal/memo"
	"vcprof/internal/perf"
	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/pipeline"
)

// CellKind selects which measurement a Cell performs.
type CellKind uint8

const (
	// CellStat runs the perf façade (live branch predictor + cache
	// hierarchy) and yields Counters.
	CellStat CellKind = iota
	// CellCounted runs a counting-only instrumented encode and yields
	// the encoder Result (instructions, mix, quality, bitstream size).
	CellCounted
	// CellWindow records a halfway micro-op window (the Pin substitute)
	// and yields the Recorder.
	CellWindow
	// CellPipeline replays the cell's recorded window through the
	// Broadwell core model and yields stall counters. It derives its
	// window through the cache, so a CellWindow at the same operating
	// point is computed at most once.
	CellPipeline
	// CellSchedule profiles the encoder's task graph for makespan
	// simulation (the thread-scalability substitute).
	CellSchedule
)

func (k CellKind) String() string {
	switch k {
	case CellStat:
		return "stat"
	case CellCounted:
		return "counted"
	case CellWindow:
		return "window"
	case CellPipeline:
		return "pipeline"
	case CellSchedule:
		return "schedule"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Cell keys one measurement of an experiment's grid: the kind plus the
// full operating point (family, clip, frames, resolution divisor, CRF,
// preset, threads, window length). Two experiments that need the same
// measurement construct equal Cells and therefore share one computation
// through the process-wide memo cache.
type Cell struct {
	Kind    CellKind
	Family  encoders.Family
	Clip    string
	Frames  int
	Div     int
	CRF     int
	Preset  int
	Threads int
	// WindowOps bounds the recorded window (CellWindow/CellPipeline).
	WindowOps uint64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s(%s %s f%d/d%d crf%d p%d t%d w%d)",
		c.Kind, c.Family, c.Clip, c.Frames, c.Div, c.CRF, c.Preset, c.Threads, c.WindowOps)
}

// windowKey returns the CellWindow cell a CellPipeline cell replays.
func (c Cell) windowKey() Cell {
	c.Kind = CellWindow
	return c
}

// StatCell keys a perf-façade run at the characterization scale.
func (s Scale) StatCell(fam encoders.Family, clip string, crf, preset int) Cell {
	return Cell{Kind: CellStat, Family: fam, Clip: clip, Frames: s.Frames, Div: s.ScaleDiv,
		CRF: crf, Preset: preset, Threads: 1}
}

// CountedCell keys a counting-only instrumented encode.
func (s Scale) CountedCell(fam encoders.Family, clip string, crf, preset int) Cell {
	return Cell{Kind: CellCounted, Family: fam, Clip: clip, Frames: s.Frames, Div: s.ScaleDiv,
		CRF: crf, Preset: preset, Threads: 1}
}

// WindowCell keys a recorded micro-op window at the scale's window size.
func (s Scale) WindowCell(fam encoders.Family, clip string, crf, preset int) Cell {
	return Cell{Kind: CellWindow, Family: fam, Clip: clip, Frames: s.Frames, Div: s.ScaleDiv,
		CRF: crf, Preset: preset, Threads: 1, WindowOps: s.WindowOps}
}

// PipelineCell keys a pipeline replay of the corresponding window.
func (s Scale) PipelineCell(fam encoders.Family, clip string, crf, preset int) Cell {
	c := s.WindowCell(fam, clip, crf, preset)
	c.Kind = CellPipeline
	return c
}

// ThreadStatCell keys a perf-façade run on the larger thread-study clip.
func (s Scale) ThreadStatCell(fam encoders.Family, clip string, crf, preset int) Cell {
	return Cell{Kind: CellStat, Family: fam, Clip: clip, Frames: s.ThreadFrames, Div: s.ThreadScaleDiv,
		CRF: crf, Preset: preset, Threads: 1}
}

// ScheduleCell keys a task-graph profile on the thread-study clip.
func (s Scale) ScheduleCell(fam encoders.Family, clip string, crf, preset int) Cell {
	return Cell{Kind: CellSchedule, Family: fam, Clip: clip, Frames: s.ThreadFrames, Div: s.ThreadScaleDiv,
		CRF: crf, Preset: preset, Threads: 1}
}

// CellResult carries the outcome of one cell. Exactly one field is set,
// selected by the cell's kind. Results are shared between experiments
// and between goroutines: treat every field as immutable.
type CellResult struct {
	Stat  *perf.Counters     // CellStat
	Enc   *encoders.Result   // CellCounted
	Rec   *trace.Recorder    // CellWindow
	Pipe  *pipeline.Result   // CellPipeline
	Sched *encoders.Schedule // CellSchedule
}

// run computes the cell's measurement (uncached). Cancelling ctx
// aborts the underlying encode at its next task boundary.
func (c Cell) run(ctx context.Context) (CellResult, error) {
	clip, err := cachedClip(ctx, c.Clip, c.Frames, c.Div)
	if err != nil {
		return CellResult{}, err
	}
	enc, err := encoders.New(c.Family)
	if err != nil {
		return CellResult{}, err
	}
	opts := encoders.Options{CRF: c.CRF, Preset: c.Preset, Threads: c.Threads}
	switch c.Kind {
	case CellStat:
		st, err := perf.Stat(ctx, enc, clip, opts)
		return CellResult{Stat: st}, err
	case CellCounted:
		opts.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
		// Only counted cells shard below the cell, on the pool governing
		// the run (fork-join nested: the worker that started the cell
		// keeps executing shards while the encode's graph completes).
		// Merge order is pinned by task index, so results are
		// schedule-proof. Stat, window and pipeline cells attach live
		// predictor and cache sinks whose state depends on access order;
		// perf pins those to the inline path.
		opts.Pool = sched.PoolFrom(ctx)
		res, err := enc.Encode(ctx, clip, opts)
		return CellResult{Enc: res}, err
	case CellWindow:
		rec, _, err := perf.RecordWindow(ctx, enc, clip, opts, 0.5, c.WindowOps)
		return CellResult{Rec: rec}, err
	case CellPipeline:
		win, _, err := getCell(ctx, c.windowKey())
		if err != nil {
			return CellResult{}, err
		}
		sim, err := pipeline.New(pipeline.Broadwell())
		if err != nil {
			return CellResult{}, err
		}
		res, err := sim.RunCtx(ctx, win.Rec.Ops)
		return CellResult{Pipe: res}, err
	case CellSchedule:
		sc, _, err := encoders.ProfileSchedule(ctx, enc, clip, opts)
		return CellResult{Sched: sc}, err
	}
	return CellResult{}, fmt.Errorf("harness: unknown cell kind %d", c.Kind)
}

// weight returns the eviction weight of a completed cell in bytes.
// Window cells hold the chunks of tape their window reads in place, and
// dominate memory; everything else is a handful of counters, charged a
// nominal byte.
func (r CellResult) weight() int64 {
	if r.Rec != nil {
		return r.Rec.Tape.Bytes()
	}
	return 1
}

// defaultCellWeight bounds the memo cache at 128 MB of cached windows.
const defaultCellWeight = 128 << 20

// cellMemo is the process-wide cell cache (memo.Memo: exactly-once,
// weight-bounded LRU, cancellation never cached). Dropped cells are
// simply recomputed on next use.
var cellMemo = memo.New[Cell, CellResult](defaultCellWeight, CellResult.weight)

// getCell returns the memoized result for a cell, computing it on the
// first request. The second return reports whether the entry already
// existed (a cache hit, including joins on an in-flight computation).
func getCell(ctx context.Context, c Cell) (CellResult, bool, error) {
	if c.Threads < 1 {
		// 0 and 1 mean the same encode (see encoders.Options.Threads);
		// fold them to one cache key so the spellings share a memo entry.
		c.Threads = 1
	}
	res, hit, err := cellMemo.Do(ctx, c, c.run)
	if hit {
		obsCellHits.Add(1)
	} else {
		obsCellMisses.Add(1)
	}
	return res, hit, err
}

// CellCacheStats reports hit/miss counts and occupancy.
func CellCacheStats() memo.Stats { return cellMemo.Stats() }

// ResetCellCache empties the memo cache and its counters. Benchmarks
// call it to measure uncached runs; tests call it to force fresh
// computation. Entries still being computed are abandoned to their
// current waiters and recomputed on the next request.
func ResetCellCache() { cellMemo.Reset() }

package harness

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"vcprof/internal/encoders"
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
	clip, err := cachedClip(c.Clip, c.Frames, c.Div)
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

// weight returns the eviction weight of a completed cell. Window cells
// hold the recorded micro-ops and dominate memory; everything else is a
// handful of counters.
func (r CellResult) weight() int64 {
	if r.Rec != nil {
		return 1 + int64(len(r.Rec.Ops))
	}
	return 1
}

// cellEntry is one memo-cache slot. done is closed when val/err are
// set; waiters block on it so each cell is computed exactly once even
// under concurrent requests.
type cellEntry struct {
	cell   Cell
	done   chan struct{}
	val    CellResult
	err    error
	weight int64
	elem   *list.Element
}

// defaultCellWeight bounds the memo cache: roughly the micro-op count
// held by cached windows (~32 bytes per op, so 4M ≈ 128MB) plus one
// unit per light cell.
const defaultCellWeight = 4 << 20

var cellCache = struct {
	sync.Mutex
	m      map[Cell]*cellEntry
	lru    *list.List // front = most recently used
	weight int64      // total weight of completed entries
	cap    int64
	hits   uint64
	misses uint64
}{m: make(map[Cell]*cellEntry), lru: list.New(), cap: defaultCellWeight}

// getCell returns the memoized result for a cell, computing it on the
// first request. The second return reports whether the entry already
// existed (a cache hit, including joins on an in-flight computation).
//
// Cancellation never poisons the cache: a computation aborted by its
// requester's ctx is removed from the cache, and a waiter whose own ctx
// is still live retries (recomputing under its own ctx) instead of
// inheriting another caller's cancellation.
func getCell(ctx context.Context, c Cell) (CellResult, bool, error) {
	if c.Threads < 1 {
		// 0 and 1 mean the same encode (see encoders.Options.Threads);
		// fold them to one cache key so the spellings share a memo entry.
		c.Threads = 1
	}
	for {
		res, hit, err := getCellOnce(ctx, c)
		if hit && err != nil && ctx.Err() == nil && isCancellation(err) {
			// We joined a computation that its own requester cancelled;
			// the entry has been dropped, so try again under our ctx.
			continue
		}
		return res, hit, err
	}
}

// isCancellation reports whether err is a context cancellation or
// deadline error (possibly wrapped by task labels).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func getCellOnce(ctx context.Context, c Cell) (CellResult, bool, error) {
	cellCache.Lock()
	if e, ok := cellCache.m[c]; ok {
		cellCache.lru.MoveToFront(e.elem)
		cellCache.hits++
		cellCache.Unlock()
		obsCellHits.Add(1)
		select {
		case <-e.done:
			return e.val, true, e.err
		case <-ctx.Done():
			// Abandon the wait; the computation continues for others.
			return CellResult{}, true, ctx.Err()
		}
	}
	e := &cellEntry{cell: c, done: make(chan struct{})}
	e.elem = cellCache.lru.PushFront(e)
	cellCache.m[c] = e
	cellCache.misses++
	cellCache.Unlock()
	obsCellMisses.Add(1)

	e.val, e.err = c.run(ctx)
	close(e.done)

	cellCache.Lock()
	if e.err != nil && isCancellation(e.err) {
		// Drop the aborted entry so the next request recomputes.
		if _, ok := cellCache.m[c]; ok && cellCache.m[c] == e {
			cellCache.lru.Remove(e.elem)
			delete(cellCache.m, c)
		}
		cellCache.Unlock()
		return e.val, false, e.err
	}
	e.weight = e.val.weight()
	cellCache.weight += e.weight
	evictCellsLocked()
	cellCache.Unlock()
	return e.val, false, e.err
}

// evictCellsLocked drops least-recently-used completed entries until the
// cache is back under its weight budget. In-flight entries (weight 0)
// are never evicted; dropped cells are simply recomputed on next use.
func evictCellsLocked() {
	for cellCache.weight > cellCache.cap {
		evicted := false
		for el := cellCache.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cellEntry)
			if e.weight == 0 {
				continue // still computing
			}
			cellCache.lru.Remove(el)
			delete(cellCache.m, e.cell)
			cellCache.weight -= e.weight
			evicted = true
			break
		}
		if !evicted {
			return // everything left is in flight
		}
	}
}

// CacheStats is a snapshot of the cell memo cache.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	Weight  int64
	Cap     int64
}

// CellCacheStats reports hit/miss counts and occupancy.
func CellCacheStats() CacheStats {
	cellCache.Lock()
	defer cellCache.Unlock()
	return CacheStats{
		Hits:    cellCache.hits,
		Misses:  cellCache.misses,
		Entries: len(cellCache.m),
		Weight:  cellCache.weight,
		Cap:     cellCache.cap,
	}
}

// ResetCellCache empties the memo cache and its counters. Benchmarks
// call it to measure uncached runs; tests call it to force fresh
// computation. Entries still being computed are abandoned to their
// current waiters and recomputed on the next request.
func ResetCellCache() {
	cellCache.Lock()
	defer cellCache.Unlock()
	cellCache.m = make(map[Cell]*cellEntry)
	cellCache.lru = list.New()
	cellCache.weight = 0
	cellCache.hits = 0
	cellCache.misses = 0
}

// setCellCacheCap adjusts the eviction budget (test hook).
func setCellCacheCap(w int64) {
	cellCache.Lock()
	cellCache.cap = w
	evictCellsLocked()
	cellCache.Unlock()
}

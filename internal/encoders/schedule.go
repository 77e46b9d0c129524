package encoders

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"vcprof/internal/sched"
	"vcprof/internal/trace"
)

// The threading architecture of each encoder family is expressed as an
// explicit task graph: tasks are the units its real scheduler
// dispatches (SVT-AV1 segments, libaom tiles, x264 frame rows under a
// reconstruction watermark, the x265 master chain), and edges are the
// data dependences between them. A graph runs one of two ways, chosen
// by Encode from what it is given:
//
//   - inline (runInline): no pool and Threads <= 1. Tasks run in
//     topological order on the calling goroutine, directly on the one
//     worker context, so sinks attached to that context (perf.Stat's
//     predictor and cache monitors, window recorders) see every event
//     in a stable order. This is the only path on which attached sinks
//     see events.
//   - sharded (runSharded): on a sched.Pool, the caller's or a
//     transient one Threads wide. Each task counts into a private
//     context that is merged into attribution lane (task index mod
//     Threads), so Threads is the number of lanes in
//     Result.WorkerInsts, never a goroutine count, and every counter
//     is independent of the pool's width, seed and steal interleaving.
//
// ProfileSchedule's runProfiled is not a scheduler: it runs the graph
// serially, measuring each task's dynamic instruction cost, from which
// Schedule.Makespan computes the runtime on any number of simulated
// cores. That is the substitution for the paper's 12-core Xeon
// thread-scalability measurements (§4.6): speedups derive from the
// measured work distribution and the dependence structure rather than
// from host wall-clock, so they are deterministic and reproducible on
// any machine, including single-core CI runners.

// task is one schedulable unit. pic, when set, is the picture the
// task's work is attributed to for the per-frame stage breakdown.
// cost is the builder's static work estimate (roughly superblocks
// scaled by preset effort), used only to steer the pool.
type task struct {
	name string
	deps []int
	pic  *picture
	cost uint64
	run  func(worker int, tc *trace.Ctx) error
}

// graph is a DAG of tasks in insertion order (a valid topological
// order: builders only reference earlier tasks). Its storage is the
// working set's, reused by the next encode's graph.
type graph struct {
	tasks []task
	deps  []int // every task's deps, back to back
}

// reset empties g for a new encode's tasks, dropping the last one's.
func (g *graph) reset() *graph {
	clear(g.tasks)
	g.tasks, g.deps = g.tasks[:0], g.deps[:0]
	return g
}

// add appends a task attributed to pic and returns its id. All deps
// must already exist.
func (g *graph) add(pic *picture, name string, deps []int, cost uint64, run func(worker int, tc *trace.Ctx) error) int {
	id := len(g.tasks)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("encoders: task %q depends on invalid task %d", name, d))
		}
	}
	at := len(g.deps)
	g.deps = append(g.deps, deps...)
	g.tasks = append(g.tasks, task{name: name, deps: g.deps[at:len(g.deps):len(g.deps)], pic: pic, cost: cost, run: run})
	return id
}

// sbCost is the static per-superblock work estimate of closed-loop
// encode tasks at the stream's preset: slower presets search more.
func (se *streamEncoder) sbCost() uint64 {
	return uint64(4 + int(12*se.spec.effort(se.opts.Preset)))
}

// runTask executes one task on tc, snapshotting the context's
// per-stage instruction counters around the body and folding the delta
// into the task's picture. Each task runs wholly on one worker's
// context, so the delta is exact; per-frame sums are therefore
// independent of which worker ran what — the property that keeps the
// obs frame spans byte-identical across worker counts.
func runTask(t *task, worker int, tc *trace.Ctx) error {
	if t.pic == nil || tc == nil {
		return t.run(worker, tc)
	}
	before := tc.StageCounts()
	err := t.run(worker, tc)
	delta := tc.StageCounts().Sub(before)
	t.pic.addStages(&delta)
	return err
}

// workerSet holds what tasks run against: one instrumentation context
// per attribution lane (Options.Threads of them; all nil when the
// encode is uninstrumented) and one scratch buffer per executing
// worker — one on the inline path, the pool's width on a pool. The two
// counts are independent: lanes are keyed by task index, scratch by
// the worker that claimed the task. It is part of the encode's working
// set, whose scratch may outnumber this encode's workers.
type workerSet struct {
	ctxs    []*trace.Ctx
	scratch []*workScratch
}

// newWorkerSet readies the working set's workers for the encode: the
// lanes' contexts, and the first workers scratch buffers, registered
// in the address space in worker order.
func newWorkerSet(se *streamEncoder, opts Options, workers int) (*workerSet, error) {
	ws := &se.set.workers
	ws.ctxs = append(ws.ctxs[:0], make([]*trace.Ctx, opts.Threads)...)
	if opts.NewWorkerCtx != nil {
		for i := range ws.ctxs {
			ws.ctxs[i] = opts.NewWorkerCtx(i)
		}
	}
	for i := 0; i < workers; i++ {
		if err := se.set.scratchAt(i).register(se.set.as); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// runInline executes the graph in topological order on the calling
// goroutine and worker 0's context. Cancelling ctx stops execution at
// the next task boundary: tasks are sub-frame units (rows, segments,
// tiles), so an encode aborts between frames at the latest.
func runInline(ctx context.Context, g *graph, ws *workerSet) error {
	for i := range g.tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runTask(&g.tasks[i], 0, ws.ctxs[0]); err != nil {
			return fmt.Errorf("task %s: %w", g.tasks[i].name, err)
		}
	}
	return nil
}

// runProfiled executes the graph serially on worker 0, measuring each
// task's instruction cost with a private context that is then merged
// into the worker context (if any). Cancelling ctx aborts between
// tasks, like runInline.
func runProfiled(ctx context.Context, g *graph, ws *workerSet) ([]uint64, error) {
	costs := make([]uint64, len(g.tasks))
	tc := &ws.scratch[0].task
	for i := range g.tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tc.Reset()
		if err := runTask(&g.tasks[i], 0, tc); err != nil {
			return nil, fmt.Errorf("task %s: %w", g.tasks[i].name, err)
		}
		costs[i] = tc.Total()
		if ws.ctxs[0] != nil {
			ws.ctxs[0].Merge(tc)
		}
	}
	return costs, nil
}

// ---------------------------------------------------------------------
// Shard handoff.

// shardGraph is a built encode graph as a sched.Graph. Run may be
// called concurrently for independent tasks. Each task runs with a
// private trace context (its worker's, reset) that is merged into the
// worker set's context slot chosen by task index — a schedule-free
// assignment, so Insts, Mix and WorkerInsts are identical no matter
// which pool worker ran what. Frame stage attribution stays exact
// because runTask snapshots the private context around the body.
type shardGraph struct {
	g  *graph
	ws *workerSet
	mu []sync.Mutex // one per merge slot; nil when uninstrumented
}

func (s *shardGraph) NumTasks() int      { return len(s.g.tasks) }
func (s *shardGraph) Deps(i int) []int   { return s.g.tasks[i].deps }
func (s *shardGraph) Cost(i int) uint64  { return s.g.tasks[i].cost }
func (s *shardGraph) Label(i int) string { return s.g.tasks[i].name }

func (s *shardGraph) Run(ctx context.Context, i, worker int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := &s.g.tasks[i]
	var tc *trace.Ctx
	if s.mu != nil {
		tc = &s.ws.scratch[worker].task
		tc.Reset()
	}
	err := runTask(t, worker, tc)
	if tc != nil {
		slot := i % len(s.ws.ctxs)
		s.mu[slot].Lock()
		s.ws.ctxs[slot].Merge(tc)
		s.mu[slot].Unlock()
	}
	if err != nil {
		return fmt.Errorf("task %s: %w", t.name, err)
	}
	return nil
}

// runSharded executes the graph on pool; ws must hold a scratch slot
// for each of the pool's workers.
func runSharded(ctx context.Context, g *graph, ws *workerSet, pool *sched.Pool) error {
	sg := &shardGraph{g: g, ws: ws}
	if ws.ctxs[0] != nil {
		sg.mu = make([]sync.Mutex, len(ws.ctxs))
	}
	return pool.RunGraph(ctx, sg)
}

// Schedule is a measured task graph: per-task instruction costs plus
// dependences, ready for makespan simulation on any core count.
type Schedule struct {
	Costs []uint64
	Deps  [][]int
	Names []string
}

// TotalWork returns the serial work (sum of task costs).
func (s *Schedule) TotalWork() uint64 {
	var t uint64
	for _, c := range s.Costs {
		t += c
	}
	return t
}

// Makespan list-schedules the graph greedily on the given core count
// and returns the finish time in work units along with each core's busy
// time. Ready tasks are started in id order on the earliest-free core,
// the classic work-conserving list scheduler.
func (s *Schedule) Makespan(cores int) (uint64, []uint64, error) {
	n := len(s.Costs)
	if cores < 1 {
		return 0, nil, fmt.Errorf("encoders: invalid core count %d", cores)
	}
	if n == 0 {
		return 0, make([]uint64, cores), nil
	}
	finish := make([]uint64, n)
	coreFree := make([]uint64, cores)
	coreBusy := make([]uint64, cores)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, deps := range s.Deps {
		indeg[i] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	// readyAt[i]: when all deps are done.
	readyAt := make([]uint64, n)
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			return 0, nil, fmt.Errorf("encoders: schedule deadlock (cycle in task graph)")
		}
		sort.Ints(ready)
		next := ready
		ready = nil
		for _, id := range next {
			// Earliest-free core (stable tie-break on index).
			core := 0
			for c := 1; c < cores; c++ {
				if coreFree[c] < coreFree[core] {
					core = c
				}
			}
			start := coreFree[core]
			if readyAt[id] > start {
				start = readyAt[id]
			}
			end := start + s.Costs[id]
			finish[id] = end
			coreFree[core] = end
			coreBusy[core] += s.Costs[id]
			scheduled++
			for _, dep := range dependents[id] {
				indeg[dep]--
				if readyAt[dep] < end {
					readyAt[dep] = end
				}
				if indeg[dep] == 0 {
					ready = append(ready, dep)
				}
			}
		}
	}
	var span uint64
	for _, f := range finish {
		if f > span {
			span = f
		}
	}
	return span, coreBusy, nil
}

// Speedup returns serial work divided by the makespan on the given
// number of cores.
func (s *Schedule) Speedup(cores int) (float64, error) {
	span, _, err := s.Makespan(cores)
	if err != nil {
		return 0, err
	}
	if span == 0 {
		return 1, nil
	}
	return float64(s.TotalWork()) / float64(span), nil
}

// Imbalance returns the effective serialization on the given cores:
// core count divided by achieved speedup. 1.0 means every core is busy
// for the whole run; a value near the core count means one core does
// essentially all the work — the x265 master-thread signature the paper
// infers in §4.6.
func (s *Schedule) Imbalance(cores int) (float64, error) {
	sp, err := s.Speedup(cores)
	if err != nil {
		return 0, err
	}
	if sp <= 0 {
		return float64(cores), nil
	}
	return float64(cores) / sp, nil
}

// ---------------------------------------------------------------------
// Shared graph-building helpers.

// sbRows returns the number of superblock rows of the aligned frame.
func (se *streamEncoder) sbRows() int { return se.ah / sbSize }

// sbCols returns the number of superblock columns.
func (se *streamEncoder) sbCols() int { return se.aw / sbSize }

// refsFor returns the reference pictures of pic (nil on keyframes).
func (se *streamEncoder) refsFor(pic *picture) (prev, prev2 *picture) {
	if pic.isKey || pic.index == 0 {
		return nil, nil
	}
	prev = se.pics[pic.index-1]
	if pic.index >= 2 && se.ts.refs >= 2 {
		prev2 = se.pics[pic.index-2]
	}
	return prev, prev2
}

// segRect is one entropy partition: SB rows [row0,row1) × cols
// [col0,col1).
type segRect struct{ row0, row1, col0, col1 int }

// beginSegment readies pic's partition slot for coding on tc with s:
// the slot's coder starts again on its own output buffer, and its
// stream region is registered now, when the partition's first task
// runs.
func (se *streamEncoder) beginSegment(pic *picture, slot int, tc *trace.Ctx, s *workScratch) *segCtx {
	sc := &pic.segs[slot]
	r := pic.segRects[slot]
	prev, prev2 := se.refsFor(pic)
	*sc = segCtx{
		se: se, pic: pic, prev: prev, prev2: prev2,
		enc:        sc.enc,
		region:     sc.region,
		tc:         tc,
		scratch:    s,
		segTopPx:   r.row0 * sbSize,
		segEndPx:   r.row1 * sbSize,
		segLeftPx:  r.col0 * sbSize,
		segRightPx: r.col1 * sbSize,
	}
	sc.enc.Reset(tc, se.streamVBase(sc.region))
	sc.pm.reset()
	return sc
}

// encodeSegment encodes pic's entropy partition in slot, whose
// rectangle and region setSegment placed, and stores its finished
// bitstream.
func (se *streamEncoder) encodeSegment(worker int, tc *trace.Ctx, ws *workerSet, pic *picture, slot int) error {
	sc := se.beginSegment(pic, slot, tc, ws.scratch[worker])
	r := pic.segRects[slot]
	for row := r.row0; row < r.row1; row++ {
		for c := r.col0; c < r.col1; c++ {
			if err := sc.encodeSB(c, row); err != nil {
				return err
			}
		}
	}
	pic.mergeStats(sc)
	pic.segStreams[slot] = sc.enc.Finish()
	return nil
}

// encodeSB searches, commits, codes the chroma of and filters the
// superblock at column c, row r. The search starts on an empty plan
// arena: the previous superblock's plan is dead once it is committed.
func (sc *segCtx) encodeSB(c, r int) error {
	sc.scratch.plans.reset()
	node, err := sc.searchPartition(c*sbSize, r*sbSize, sbSize, 0, nil)
	if err != nil {
		return err
	}
	if err := sc.commitNode(node, 0); err != nil {
		return err
	}
	if err := sc.encodeChromaSB(c, r, node); err != nil {
		return err
	}
	sc.cdefSB(c, r)
	return nil
}

// streamVBase returns a virtual address for a segment's output stream,
// registered under name.
func (se *streamEncoder) streamVBase(name string) uint64 {
	r, err := se.set.as.Alloc(name, 1<<20)
	if err != nil {
		return 0
	}
	return r.Base
}

// frameOverheadBytes is the fixed per-frame header cost, plus a
// per-partition length field.
const (
	frameOverheadBytes   = 16
	segmentOverheadBytes = 4
)

// buildGraph dispatches to the family's threading architecture.
func (se *streamEncoder) buildGraph(ws *workerSet) (*graph, error) {
	switch se.spec.sched {
	case schedSegments:
		return se.buildSegments(ws), nil
	case schedTiles:
		return se.buildTiles(ws), nil
	case schedWavefront:
		return se.buildFrameParallel(ws), nil
	case schedMaster:
		return se.buildMaster(ws), nil
	}
	return nil, fmt.Errorf("encoders: unknown scheduler %d", se.spec.sched)
}

// analysisBand is the grid-row granularity of analysis tasks.
const analysisBand = 4

// addAnalysisTasks appends open-loop analysis tasks for every inter
// picture (no dependences: analysis reads source frames only) and
// returns the task ids per picture index.
func (se *streamEncoder) addAnalysisTasks(g *graph) [][]int {
	byPic := make([][]int, len(se.pics))
	for _, pic := range se.pics {
		if pic.index == 0 {
			continue
		}
		pic := pic
		for gy := 0; gy < se.gh; gy += analysisBand {
			gy := gy
			end := gy + analysisBand
			if end > se.gh {
				end = se.gh
			}
			id := g.add(pic, fmt.Sprintf("analyze/p%d/g%d", pic.index, gy), nil,
				uint64((end-gy)*se.gw+3)/4,
				func(w int, tc *trace.Ctx) error {
					return se.analyzeRows(tc, pic, se.pics[pic.index-1], gy, end, 0, se.gw)
				})
			byPic[pic.index] = append(byPic[pic.index], id)
		}
	}
	return byPic
}

// ---------------------------------------------------------------------
// SVT-AV1: segment parallelism. Analysis of all frames is fully
// parallel (the picture-analysis processes of SVT's pipeline); the
// closed-loop encode of each frame splits into independent rectangular
// segments (SVT disables prediction across segment borders exactly so
// they can run concurrently); frames chain through the deblocked
// reference.
func (se *streamEncoder) buildSegments(ws *workerSet) *graph {
	g := se.set.graph.reset()
	analysis := se.addAnalysisTasks(g)
	rows, cols := se.sbRows(), se.sbCols()
	// Two column chunks per SB row when the frame is wide enough.
	colChunks := 1
	if cols >= 8 {
		colChunks = 2
	}
	var prevDeblock []int
	for _, pic := range se.pics {
		pic := pic
		pic.initSegments(rows * colChunks)
		var segIDs []int
		segAt := make([][]int, rows)
		for r := 0; r < rows; r++ {
			r := r
			for cc := 0; cc < colChunks; cc++ {
				cc := cc
				rect := segRect{row0: r, row1: r + 1,
					col0: cc * cols / colChunks, col1: (cc + 1) * cols / colChunks}
				deps := append([]int(nil), analysis[pic.index]...)
				deps = append(deps, prevDeblock...)
				slot := r*colChunks + cc
				pic.setSegment(slot, rect)
				id := g.add(pic, fmt.Sprintf("seg/p%d/r%d/c%d", pic.index, r, cc), deps,
					uint64((rect.row1-rect.row0)*(rect.col1-rect.col0))*se.sbCost(),
					func(w int, tc *trace.Ctx) error {
						return se.encodeSegment(w, tc, ws, pic, slot)
					})
				segIDs = append(segIDs, id)
				segAt[r] = append(segAt[r], id)
			}
		}
		var deblockIDs []int
		for r := 0; r < rows; r++ {
			r := r
			deps := append([]int(nil), segAt[r]...)
			if r > 0 {
				deps = append(deps, segAt[r-1]...)
				// Boundary rows are touched by both adjacent deblock
				// passes; chain them so the filter order is fixed.
				deps = append(deps, deblockIDs[r-1])
			}
			if r+1 < rows {
				deps = append(deps, segAt[r+1]...)
			}
			id := g.add(pic, fmt.Sprintf("deblock/p%d/r%d", pic.index, r), deps,
				uint64(cols),
				func(w int, tc *trace.Ctx) error {
					deblockRows(tc, pic.recY, r*sbSize, (r+1)*sbSize, pic.step)
					return nil
				})
			deblockIDs = append(deblockIDs, id)
		}
		fin := g.add(pic, fmt.Sprintf("finalize/p%d", pic.index), segIDs, 1,
			func(w int, tc *trace.Ctx) error {
				pic.finalizeBytes()
				return se.rateUpdate(pic)
			})
		prevDeblock = append(deblockIDs, fin)
	}
	return g
}

// ---------------------------------------------------------------------
// libaom / libvpx-vp9: tile parallelism. A fixed 2×2 tile grid bounds
// parallelism near 4x regardless of core count; each tile runs its own
// analysis and encode, and frames chain through the deblocked reference.
func (se *streamEncoder) buildTiles(ws *workerSet) *graph {
	g := se.set.graph.reset()
	rows, cols := se.sbRows(), se.sbCols()
	tileRows := 2
	if rows < 2 {
		tileRows = 1
	}
	tileCols := 2
	if cols < 2 {
		tileCols = 1
	}
	var prevPicDone []int
	for _, pic := range se.pics {
		pic := pic
		nTiles := tileRows * tileCols
		pic.initSegments(nTiles)
		var tileIDs []int
		for tr := 0; tr < tileRows; tr++ {
			for tcI := 0; tcI < tileCols; tcI++ {
				rect := segRect{
					row0: tr * rows / tileRows, row1: (tr + 1) * rows / tileRows,
					col0: tcI * cols / tileCols, col1: (tcI + 1) * cols / tileCols,
				}
				slot := tr*tileCols + tcI
				pic.setSegment(slot, rect)
				id := g.add(pic, fmt.Sprintf("tile/p%d/t%d", pic.index, slot), prevPicDone,
					uint64((rect.row1-rect.row0)*(rect.col1-rect.col0))*(se.sbCost()+1),
					func(w int, tc *trace.Ctx) error {
						if pic.index > 0 {
							gy0 := rect.row0 * sbSize / analysisGrid
							gy1 := rect.row1 * sbSize / analysisGrid
							gx0 := rect.col0 * sbSize / analysisGrid
							gx1 := rect.col1 * sbSize / analysisGrid
							if err := se.analyzeRows(tc, pic, se.pics[pic.index-1], gy0, gy1, gx0, gx1); err != nil {
								return err
							}
						}
						return se.encodeSegment(w, tc, ws, pic, slot)
					})
				tileIDs = append(tileIDs, id)
			}
		}
		fin := g.add(pic, fmt.Sprintf("finalize/p%d", pic.index), tileIDs,
			uint64(rows*cols)+1,
			func(w int, tc *trace.Ctx) error {
				deblockRows(tc, pic.recY, 0, se.ah, pic.step)
				pic.finalizeBytes()
				return se.rateUpdate(pic)
			})
		prevPicDone = []int{fin}
	}
	return g
}

// ---------------------------------------------------------------------
// x264: frame-level parallelism with a reconstruction-row watermark.
// Each frame's superblock rows form a chain; row r of frame i also
// depends on row r+lag of frame i−1, where lag covers the downward
// motion-search reach — x264's classic threading design.
func (se *streamEncoder) buildFrameParallel(ws *workerSet) *graph {
	g := se.set.graph.reset()
	rows, cols := se.sbRows(), se.sbCols()
	mvReach := se.ts.motionRange + se.ts.refineRange + 16
	lag := (mvReach + sbSize - 1) / sbSize
	rowIDs := make([][]int, len(se.pics))
	for _, pic := range se.pics {
		pic := pic
		pic.initSegments(1)
		pic.setSegment(0, segRect{row0: 0, row1: rows, col0: 0, col1: cols})
		for r := 0; r < rows; r++ {
			r := r
			var deps []int
			if r > 0 {
				deps = append(deps, rowIDs[pic.index][r-1])
			}
			if pic.index > 0 {
				refRow := r + lag
				if refRow >= rows || se.rc != nil {
					// ABR serializes frames: the quantizer for this frame
					// is only known once the previous frame finalizes.
					refRow = rows - 1
				}
				deps = append(deps, rowIDs[pic.index-1][refRow])
			}
			id := g.add(pic, fmt.Sprintf("row/p%d/r%d", pic.index, r), deps,
				uint64(cols)*(se.sbCost()+2),
				func(w int, tc *trace.Ctx) error {
					// Row tasks of one frame share its one partition
					// through a dependency chain (row r waits on row r-1):
					// row 0 begins it, and each row retargets it.
					sc := &pic.segs[0]
					if r == 0 {
						sc = se.beginSegment(pic, 0, tc, ws.scratch[w])
					}
					sc.tc = tc
					sc.enc.SetCtx(tc)
					sc.scratch = ws.scratch[w]
					if pic.index > 0 {
						gy0 := r * sbSize / analysisGrid
						gy1 := (r + 1) * sbSize / analysisGrid
						if err := se.analyzeRows(tc, pic, se.pics[pic.index-1], gy0, gy1, 0, se.gw); err != nil {
							return err
						}
					}
					for c := 0; c < cols; c++ {
						if err := sc.encodeSB(c, r); err != nil {
							return err
						}
					}
					// Deblock the region that can no longer change.
					if r > 0 {
						deblockRows(tc, pic.recY, r*sbSize-8, r*sbSize+sbSize-8, pic.step)
					} else {
						deblockRows(tc, pic.recY, 0, sbSize-8, pic.step)
					}
					if r == rows-1 {
						deblockRows(tc, pic.recY, se.ah-8, se.ah, pic.step)
						pic.mergeStats(sc)
						pic.segStreams[0] = sc.enc.Finish()
						pic.finalizeBytes()
						return se.rateUpdate(pic)
					}
					return nil
				})
			rowIDs[pic.index] = append(rowIDs[pic.index], id)
		}
	}
	return g
}

// ---------------------------------------------------------------------
// x265: a master chain performs the whole closed-loop encode serially;
// the open-loop analysis (lookahead) of future frames is the only work
// other cores can absorb. That division caps the speedup near the
// lookahead's share of total work and concentrates everything else on
// one core — the imbalance signature the paper reads from x265.
func (se *streamEncoder) buildMaster(ws *workerSet) *graph {
	g := se.set.graph.reset()
	analysis := se.addAnalysisTasks(g)
	prev := -1
	for _, pic := range se.pics {
		pic := pic
		deps := append([]int(nil), analysis[pic.index]...)
		if prev >= 0 {
			deps = append(deps, prev)
		}
		pic.initSegments(1)
		pic.setSegment(0, segRect{row0: 0, row1: se.sbRows(), col0: 0, col1: se.sbCols()})
		prev = g.add(pic, fmt.Sprintf("encode/p%d", pic.index), deps,
			uint64(se.sbRows()*se.sbCols())*(se.sbCost()+1),
			func(w int, tc *trace.Ctx) error {
				if err := se.encodeSegment(w, tc, ws, pic, 0); err != nil {
					return err
				}
				deblockRows(tc, pic.recY, 0, se.ah, pic.step)
				pic.finalizeBytes()
				return se.rateUpdate(pic)
			})
	}
	return g
}

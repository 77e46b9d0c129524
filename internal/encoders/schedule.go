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

// taskKind is what a task does. i and j place the task in its
// picture, as each kind's comment says.
type taskKind uint8

const (
	taskAnalyze      taskKind = iota // open-loop analysis of grid rows [i, j)
	taskSegment                      // SVT-AV1 segment at superblock row i, column chunk j
	taskDeblock                      // SVT-AV1 deblock of superblock row i
	taskFinalize                     // SVT-AV1 frame size and rate update
	taskTile                         // libaom/VP9 tile in partition slot i, its analysis included
	taskTileFinalize                 // libaom/VP9 whole-frame deblock, size and rate update
	taskRow                          // x264 superblock row i
	taskMaster                       // x265 whole-frame encode
)

// task is one schedulable unit: what it does to picture pic, to which
// its work is attributed for the per-frame stage breakdown. cost is
// the builder's static work estimate (roughly superblocks scaled by
// preset effort), used only to steer the pool. A task holds no closure
// and no name, so building a graph on a recycled working set
// allocates nothing; name formats its label when one is asked for.
type task struct {
	kind taskKind
	pic  *picture
	i, j int
	deps []int
	cost uint64
}

// name is the task's label, for errors, pool observers and
// Schedule.Names.
func (t *task) name() string {
	p := t.pic.index
	switch t.kind {
	case taskAnalyze:
		return fmt.Sprintf("analyze/p%d/g%d", p, t.i)
	case taskSegment:
		return fmt.Sprintf("seg/p%d/r%d/c%d", p, t.i, t.j)
	case taskDeblock:
		return fmt.Sprintf("deblock/p%d/r%d", p, t.i)
	case taskFinalize, taskTileFinalize:
		return fmt.Sprintf("finalize/p%d", p)
	case taskTile:
		return fmt.Sprintf("tile/p%d/t%d", p, t.i)
	case taskRow:
		return fmt.Sprintf("row/p%d/r%d", p, t.i)
	case taskMaster:
		return fmt.Sprintf("encode/p%d", p)
	}
	return fmt.Sprintf("kind%d/p%d", t.kind, p)
}

// graph is a DAG of tasks in insertion order (a valid topological
// order: builders only reference earlier tasks), run by the stream
// encoder se on the workers ws. Its storage is the working set's,
// reused by the next encode's graph.
type graph struct {
	se    *streamEncoder
	ws    *workerSet
	tasks []task
	deps  []int // every task's deps, back to back, then the next task's so far
	next  int   // where the next task's deps start in deps
}

// reset empties g for a new encode's tasks, dropping the last one's.
func (g *graph) reset() *graph {
	clear(g.tasks)
	g.tasks, g.deps, g.next = g.tasks[:0], g.deps[:0], 0
	g.se, g.ws = nil, nil
	return g
}

// span is the task ids [lo, hi): builders add a picture's tasks of one
// kind back to back.
type span struct{ lo, hi int }

// need adds ids to the dependences of the next task added.
func (g *graph) need(ids ...int) { g.deps = append(g.deps, ids...) }

// needSpan adds the ids of s, in order, to the dependences of the next
// task added.
func (g *graph) needSpan(s span) {
	for id := s.lo; id < s.hi; id++ {
		g.deps = append(g.deps, id)
	}
}

// add appends a task of the given kind on pic, depending on the ids
// need and needSpan gave since the last add, and returns its id. All
// of them must already exist.
func (g *graph) add(kind taskKind, pic *picture, i, j int, cost uint64) int {
	id := len(g.tasks)
	t := task{kind: kind, pic: pic, i: i, j: j, deps: g.deps[g.next:len(g.deps):len(g.deps)], cost: cost}
	g.next = len(g.deps)
	for _, d := range t.deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("encoders: task %q depends on invalid task %d", t.name(), d))
		}
	}
	g.tasks = append(g.tasks, t)
	return id
}

// sbCost is the static per-superblock work estimate of closed-loop
// encode tasks at the stream's preset: slower presets search more.
func (se *streamEncoder) sbCost() uint64 {
	return uint64(4 + int(12*se.spec.effort(se.opts.Preset)))
}

// runTask executes task i on tc, snapshotting the context's per-stage
// instruction counters around the body and folding the delta into the
// task's picture. Each task runs wholly on one worker's context, so
// the delta is exact; per-frame sums are therefore independent of
// which worker ran what — the property that keeps the obs frame spans
// byte-identical across worker counts. A failure is labelled with the
// task's name.
func (g *graph) runTask(i, worker int, tc *trace.Ctx) error {
	t := &g.tasks[i]
	var err error
	if tc == nil {
		err = g.exec(t, worker, tc)
	} else {
		before := tc.StageCounts()
		err = g.exec(t, worker, tc)
		delta := tc.StageCounts().Sub(before)
		t.pic.addStages(&delta)
	}
	if err != nil {
		return fmt.Errorf("task %s: %w", t.name(), err)
	}
	return nil
}

// exec does task t's work on worker's scratch and context tc.
func (g *graph) exec(t *task, worker int, tc *trace.Ctx) error {
	se, pic := g.se, t.pic
	switch t.kind {
	case taskAnalyze:
		return se.analyzeRows(tc, pic, se.pics[pic.index-1], t.i, t.j, 0, se.gw)
	case taskSegment:
		return se.encodeSegment(worker, tc, g.ws, pic, t.i*se.colChunks()+t.j)
	case taskDeblock:
		deblockRows(tc, pic.recY, t.i*sbSize, (t.i+1)*sbSize, pic.step)
		return nil
	case taskFinalize:
		pic.finalizeBytes()
		return se.rateUpdate(pic)
	case taskTile:
		return se.encodeTile(worker, tc, g.ws, pic, t.i)
	case taskTileFinalize:
		deblockRows(tc, pic.recY, 0, se.ah, pic.step)
		pic.finalizeBytes()
		return se.rateUpdate(pic)
	case taskRow:
		return se.encodeRow(worker, tc, g.ws, pic, t.i)
	case taskMaster:
		if err := se.encodeSegment(worker, tc, g.ws, pic, 0); err != nil {
			return err
		}
		deblockRows(tc, pic.recY, 0, se.ah, pic.step)
		pic.finalizeBytes()
		return se.rateUpdate(pic)
	}
	return fmt.Errorf("unknown task kind %d", t.kind)
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
		if err := g.runTask(i, 0, ws.ctxs[0]); err != nil {
			return err
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
		if err := g.runTask(i, 0, tc); err != nil {
			return nil, err
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
func (s *shardGraph) Label(i int) string { return s.g.tasks[i].name() }

func (s *shardGraph) Run(ctx context.Context, i, worker int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var tc *trace.Ctx
	if s.mu != nil {
		tc = &s.ws.scratch[worker].task
		tc.Reset()
	}
	err := s.g.runTask(i, worker, tc)
	if tc != nil {
		slot := i % len(s.ws.ctxs)
		s.mu[slot].Lock()
		s.ws.ctxs[slot].Merge(tc)
		s.mu[slot].Unlock()
	}
	return err
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
	g := se.set.graph.reset()
	g.se, g.ws = se, ws
	switch se.spec.sched {
	case schedSegments:
		se.buildSegments(g)
	case schedTiles:
		se.buildTiles(g)
	case schedWavefront:
		se.buildFrameParallel(g)
	case schedMaster:
		se.buildMaster(g)
	default:
		return nil, fmt.Errorf("encoders: unknown scheduler %d", se.spec.sched)
	}
	return g, nil
}

// analysisBand is the grid-row granularity of analysis tasks.
const analysisBand = 4

// analysisTasks locates the tasks addAnalysisTasks added: from task
// first on, bands per inter picture, picture by picture.
type analysisTasks struct{ first, bands int }

// of returns picture p's analysis tasks (none for picture 0).
func (a analysisTasks) of(p int) span {
	if p == 0 {
		return span{}
	}
	lo := a.first + a.bands*(p-1)
	return span{lo, lo + a.bands}
}

// addAnalysisTasks appends open-loop analysis tasks for every inter
// picture (no dependences: analysis reads source frames only).
func (se *streamEncoder) addAnalysisTasks(g *graph) analysisTasks {
	a := analysisTasks{first: len(g.tasks), bands: (se.gh + analysisBand - 1) / analysisBand}
	for _, pic := range se.pics {
		if pic.index == 0 {
			continue
		}
		for gy := 0; gy < se.gh; gy += analysisBand {
			end := min(gy+analysisBand, se.gh)
			g.add(taskAnalyze, pic, gy, end, uint64((end-gy)*se.gw+3)/4)
		}
	}
	return a
}

// colChunks is the number of SVT-AV1 segments per superblock row: two
// column chunks when the frame is wide enough.
func (se *streamEncoder) colChunks() int {
	if se.sbCols() >= 8 {
		return 2
	}
	return 1
}

// ---------------------------------------------------------------------
// SVT-AV1: segment parallelism. Analysis of all frames is fully
// parallel (the picture-analysis processes of SVT's pipeline); the
// closed-loop encode of each frame splits into independent rectangular
// segments (SVT disables prediction across segment borders exactly so
// they can run concurrently); frames chain through the deblocked
// reference.
func (se *streamEncoder) buildSegments(g *graph) {
	analysis := se.addAnalysisTasks(g)
	rows, cols := se.sbRows(), se.sbCols()
	colChunks := se.colChunks()
	var prevDeblock span // the previous picture's deblock rows and finalize task
	for _, pic := range se.pics {
		pic.initSegments(rows * colChunks)
		first := len(g.tasks)
		segRow := func(r int) span {
			lo := first + r*colChunks
			return span{lo, lo + colChunks}
		}
		for r := 0; r < rows; r++ {
			for cc := 0; cc < colChunks; cc++ {
				rect := segRect{row0: r, row1: r + 1,
					col0: cc * cols / colChunks, col1: (cc + 1) * cols / colChunks}
				pic.setSegment(r*colChunks+cc, rect)
				g.needSpan(analysis.of(pic.index))
				g.needSpan(prevDeblock)
				g.add(taskSegment, pic, r, cc, uint64((rect.row1-rect.row0)*(rect.col1-rect.col0))*se.sbCost())
			}
		}
		segs := span{first, len(g.tasks)}
		for r := 0; r < rows; r++ {
			g.needSpan(segRow(r))
			if r > 0 {
				g.needSpan(segRow(r - 1))
				// Boundary rows are touched by both adjacent deblock
				// passes; chain them so the filter order is fixed.
				g.need(len(g.tasks) - 1)
			}
			if r+1 < rows {
				g.needSpan(segRow(r + 1))
			}
			g.add(taskDeblock, pic, r, 0, uint64(cols))
		}
		g.needSpan(segs)
		fin := g.add(taskFinalize, pic, 0, 0, 1)
		prevDeblock = span{segs.hi, fin + 1}
	}
}

// ---------------------------------------------------------------------
// libaom / libvpx-vp9: tile parallelism. A fixed 2×2 tile grid bounds
// parallelism near 4x regardless of core count; each tile runs its own
// analysis and encode, and frames chain through the deblocked reference.
func (se *streamEncoder) buildTiles(g *graph) {
	rows, cols := se.sbRows(), se.sbCols()
	tileRows := 2
	if rows < 2 {
		tileRows = 1
	}
	tileCols := 2
	if cols < 2 {
		tileCols = 1
	}
	var prevPicDone span
	for _, pic := range se.pics {
		pic.initSegments(tileRows * tileCols)
		first := len(g.tasks)
		for tr := 0; tr < tileRows; tr++ {
			for tcI := 0; tcI < tileCols; tcI++ {
				rect := segRect{
					row0: tr * rows / tileRows, row1: (tr + 1) * rows / tileRows,
					col0: tcI * cols / tileCols, col1: (tcI + 1) * cols / tileCols,
				}
				slot := tr*tileCols + tcI
				pic.setSegment(slot, rect)
				g.needSpan(prevPicDone)
				g.add(taskTile, pic, slot, 0, uint64((rect.row1-rect.row0)*(rect.col1-rect.col0))*(se.sbCost()+1))
			}
		}
		g.needSpan(span{first, len(g.tasks)})
		fin := g.add(taskTileFinalize, pic, 0, 0, uint64(rows*cols)+1)
		prevPicDone = span{fin, fin + 1}
	}
}

// encodeTile runs tile slot of pic: the open-loop analysis under it
// (inter pictures), then its encode.
func (se *streamEncoder) encodeTile(worker int, tc *trace.Ctx, ws *workerSet, pic *picture, slot int) error {
	if pic.index > 0 {
		rect := pic.segRects[slot]
		gy0 := rect.row0 * sbSize / analysisGrid
		gy1 := rect.row1 * sbSize / analysisGrid
		gx0 := rect.col0 * sbSize / analysisGrid
		gx1 := rect.col1 * sbSize / analysisGrid
		if err := se.analyzeRows(tc, pic, se.pics[pic.index-1], gy0, gy1, gx0, gx1); err != nil {
			return err
		}
	}
	return se.encodeSegment(worker, tc, ws, pic, slot)
}

// ---------------------------------------------------------------------
// x264: frame-level parallelism with a reconstruction-row watermark.
// Each frame's superblock rows form a chain; row r of frame i also
// depends on row r+lag of frame i−1, where lag covers the downward
// motion-search reach — x264's classic threading design.
func (se *streamEncoder) buildFrameParallel(g *graph) {
	rows, cols := se.sbRows(), se.sbCols()
	mvReach := se.ts.motionRange + se.ts.refineRange + 16
	lag := (mvReach + sbSize - 1) / sbSize
	prevFirst := 0 // the previous picture's row 0 task
	for _, pic := range se.pics {
		pic.initSegments(1)
		pic.setSegment(0, segRect{row0: 0, row1: rows, col0: 0, col1: cols})
		first := len(g.tasks)
		for r := 0; r < rows; r++ {
			if r > 0 {
				g.need(first + r - 1)
			}
			if pic.index > 0 {
				refRow := r + lag
				if refRow >= rows || se.rc != nil {
					// ABR serializes frames: the quantizer for this frame
					// is only known once the previous frame finalizes.
					refRow = rows - 1
				}
				g.need(prevFirst + refRow)
			}
			g.add(taskRow, pic, r, 0, uint64(cols)*(se.sbCost()+2))
		}
		prevFirst = first
	}
}

// encodeRow runs superblock row r of pic on the frame's one partition.
// Row tasks of one frame share it through a dependency chain (row r
// waits on row r-1): row 0 begins it, and each row retargets it.
func (se *streamEncoder) encodeRow(worker int, tc *trace.Ctx, ws *workerSet, pic *picture, r int) error {
	sc := &pic.segs[0]
	if r == 0 {
		sc = se.beginSegment(pic, 0, tc, ws.scratch[worker])
	}
	sc.tc = tc
	sc.enc.SetCtx(tc)
	sc.scratch = ws.scratch[worker]
	if pic.index > 0 {
		gy0 := r * sbSize / analysisGrid
		gy1 := (r + 1) * sbSize / analysisGrid
		if err := se.analyzeRows(tc, pic, se.pics[pic.index-1], gy0, gy1, 0, se.gw); err != nil {
			return err
		}
	}
	for c := 0; c < se.sbCols(); c++ {
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
	if r == se.sbRows()-1 {
		deblockRows(tc, pic.recY, se.ah-8, se.ah, pic.step)
		pic.mergeStats(sc)
		pic.segStreams[0] = sc.enc.Finish()
		pic.finalizeBytes()
		return se.rateUpdate(pic)
	}
	return nil
}

// ---------------------------------------------------------------------
// x265: a master chain performs the whole closed-loop encode serially;
// the open-loop analysis (lookahead) of future frames is the only work
// other cores can absorb. That division caps the speedup near the
// lookahead's share of total work and concentrates everything else on
// one core — the imbalance signature the paper reads from x265.
func (se *streamEncoder) buildMaster(g *graph) {
	analysis := se.addAnalysisTasks(g)
	prev := -1
	for _, pic := range se.pics {
		g.needSpan(analysis.of(pic.index))
		if prev >= 0 {
			g.need(prev)
		}
		pic.initSegments(1)
		pic.setSegment(0, segRect{row0: 0, row1: se.sbRows(), col0: 0, col1: se.sbCols()})
		prev = g.add(taskMaster, pic, 0, 0, uint64(se.sbRows()*se.sbCols())*(se.sbCost()+1))
	}
}

package encoders

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vcprof/internal/codec"
	"vcprof/internal/codec/entropy"
	"vcprof/internal/codec/intra"
	"vcprof/internal/codec/motion"
	"vcprof/internal/codec/quant"
	"vcprof/internal/codec/rdo"
	"vcprof/internal/codec/transform"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// sbSize is the superblock side in luma samples for all encoder models.
const sbSize = 32

// blkClass maps a block dimension to a kernel-specialization class
// {≤4, 8, 16, 32, 64, other} → 0..5, used to pick per-size
// instrumentation sites.
func blkClass(v int) int {
	switch {
	case v <= 4:
		return 0
	case v <= 8:
		return 1
	case v <= 16:
		return 2
	case v <= 32:
		return 3
	case v <= 64:
		return 4
	}
	return 5
}

// analysisGrid is the granularity of open-loop motion analysis.
const analysisGrid = 16

var (
	pcPredCopy   = trace.Sites("encoders.predCopy/rowloop", 6)
	pcBorderLoad = trace.Site("encoders.intraBorders/load")
	pcSkipTest   = trace.Sites("encoders.chooseLeaf/skiptest", 6)
	pcModeBetter = trace.Sites("encoders.chooseLeaf/modebetter", 6)
	pcIntraTry   = trace.Site("encoders.chooseLeaf/intratry")
	pcPartEarly  = trace.Sites("encoders.searchPartition/earlyexit", 4)
	pcPartBetter = trace.Sites("encoders.searchPartition/shapebetter", 10)
	pcDeblockCmp = trace.Site("encoders.deblock/edgetest")
	fnAnalysis   = trace.Func("encoders.AnalysisStage")
	fnModeDec    = trace.Func("encoders.ModeDecision")
	fnCommit     = trace.Func("encoders.CommitLeaf")
	fnChroma     = trace.Func("encoders.ChromaEncode")
	fnDeblock    = trace.Func("encoders.Deblock")
)

// picture is the per-frame encoding state.
type picture struct {
	index  int
	isKey  bool
	srcY   codec.Surface
	srcU   codec.Surface
	srcV   codec.Surface
	recY   codec.Surface
	recU   codec.Surface
	recV   codec.Surface
	mvGrid []codec.MV
	// intraGrid holds the open-loop lookahead intra cost per analysis
	// cell (only with Options.AnalyzeIntra).
	intraGrid []uint32
	bytes     int
	// Per-frame quantizer parameters: equal to the stream defaults in
	// CRF mode, adapted per frame by the rate controller in ABR mode.
	qindex int
	step   float64
	lambda float64
	sqrtL  float64
	// Entropy partitions of the coded frame, in slot order.
	segRects   []segRect
	segStreams [][]byte
	// Partition-decision statistics, merged from segments under statMu.
	statMu     sync.Mutex
	shapeCount [numShapes]uint64
	skipCount  uint64
	// Per-stage instruction totals of this frame's tasks, merged from
	// runTask snapshots under statMu. Task-to-frame attribution is
	// scheduling-independent, so these sums are deterministic across
	// thread counts (the obs frame-span contract).
	stages trace.StageCounts
}

// mergeStats folds a finished segment's decision tallies into the
// picture.
func (p *picture) mergeStats(sc *segCtx) {
	p.statMu.Lock()
	for i, n := range sc.shapeCount {
		p.shapeCount[i] += n
	}
	p.skipCount += sc.skipCount
	p.statMu.Unlock()
}

// addStages folds one task's per-stage instruction delta into the
// frame totals.
func (p *picture) addStages(d *trace.StageCounts) {
	p.statMu.Lock()
	p.stages.Add(d)
	p.statMu.Unlock()
}

// setQIndex installs a frame quantizer and its derived RD parameters.
func (p *picture) setQIndex(qindex int, rdBonus float64) error {
	step, err := quant.StepSize(qindex)
	if err != nil {
		return err
	}
	lambda, err := rdo.Lambda(step)
	if err != nil {
		return err
	}
	p.qindex = qindex
	p.step = step
	p.lambda = lambda * rdBonus
	p.sqrtL = math.Sqrt(lambda) * rdBonus
	return nil
}

// initSegments sizes the partition slots (idempotent).
func (p *picture) initSegments(n int) {
	if len(p.segRects) != n {
		p.segRects = make([]segRect, n)
		p.segStreams = make([][]byte, n)
	}
}

// finalizeBytes computes the coded frame size from the partitions.
func (p *picture) finalizeBytes() {
	p.bytes = frameOverheadBytes
	for _, s := range p.segStreams {
		p.bytes += len(s) + segmentOverheadBytes
	}
}

// streamEncoder is the per-encode shared state.
type streamEncoder struct {
	spec   familySpec
	ts     toolset
	opts   Options
	qindex int
	step   float64
	lambda float64 // SSE-domain RD multiplier
	sqrtL  float64 // SATD-domain RD multiplier
	w, h   int     // original luma dims
	aw, ah int     // aligned (padded) luma dims
	gw, gh int     // analysis grid dims
	as     *trace.AddressSpace
	pics   []*picture
	rc     *rateController
}

func align(v, m int) int { return (v + m - 1) / m * m }

func newStreamEncoder(spec familySpec, clip *video.Clip, opts Options) (*streamEncoder, error) {
	ts := spec.tools(spec.effort(opts.Preset))
	qi := spec.qindexForCRF(opts.CRF)
	step, err := quant.StepSize(qi)
	if err != nil {
		return nil, err
	}
	lambda, err := rdo.Lambda(step)
	if err != nil {
		return nil, err
	}
	w, h := clip.Frames[0].Width(), clip.Frames[0].Height()
	se := &streamEncoder{
		spec: spec, ts: ts, opts: opts,
		qindex: qi, step: step,
		lambda: lambda * spec.rdBonus,
		sqrtL:  math.Sqrt(lambda) * spec.rdBonus,
		w:      w, h: h,
		aw: align(w, sbSize), ah: align(h, sbSize),
		as: trace.NewAddressSpace(),
	}
	se.gw = se.aw / analysisGrid
	se.gh = se.ah / analysisGrid
	for i, f := range clip.Frames {
		pic, err := se.newPicture(i, f)
		if err != nil {
			return nil, err
		}
		se.pics = append(se.pics, pic)
	}
	if opts.SceneCut {
		if err := se.detectSceneCuts(nil); err != nil {
			return nil, err
		}
	}
	if opts.TargetKbps > 0 {
		fps := clip.Meta.FPS
		rc, err := newRateController(opts.TargetKbps, fps, w, h, spec.rdBonus)
		if err != nil {
			return nil, err
		}
		se.rc = rc
		for _, pic := range se.pics {
			if err := pic.setQIndex(rc.qindex, spec.rdBonus); err != nil {
				return nil, err
			}
		}
	}
	if c := opts.AnalysisPublish; c != nil {
		if err := c.prepare(se); err != nil {
			return nil, err
		}
	}
	if c := opts.AnalysisConsume; c != nil {
		if err := c.check(se); err != nil {
			return nil, err
		}
	}
	return se, nil
}

// rateUpdate feeds a finished frame to the rate controller (if any) and
// installs the adapted quantizer on the next picture. Callers invoke it
// from the task that finalizes a frame, which the builders order before
// any encode task of the next frame when ABR is active.
func (se *streamEncoder) rateUpdate(pic *picture) error {
	if se.rc == nil || pic.index+1 >= len(se.pics) {
		return nil
	}
	q := se.rc.onFrameCoded(pic.bytes)
	return se.pics[pic.index+1].setQIndex(q, se.spec.rdBonus)
}

// newPicture pads the source frame to superblock alignment by edge
// replication and allocates its surfaces in the traced address space.
func (se *streamEncoder) newPicture(idx int, f *video.Frame) (*picture, error) {
	p := &picture{index: idx}
	ki := se.opts.KeyInterval
	p.isKey = idx == 0 || (ki > 0 && idx%ki == 0)
	caw, cah := se.aw/2, se.ah/2
	var err error
	mk := func(name string, w, h int) codec.Surface {
		if err != nil {
			return codec.Surface{}
		}
		var s codec.Surface
		s, err = codec.NewSurface(se.as, fmt.Sprintf("pic%d/%s", idx, name), w, h)
		return s
	}
	p.srcY = mk("srcY", se.aw, se.ah)
	p.srcU = mk("srcU", caw, cah)
	p.srcV = mk("srcV", caw, cah)
	p.recY = mk("recY", se.aw, se.ah)
	p.recU = mk("recU", caw, cah)
	p.recV = mk("recV", caw, cah)
	if err != nil {
		return nil, err
	}
	padInto(p.srcY.Plane, f.Y)
	padInto(p.srcU.Plane, f.U)
	padInto(p.srcV.Plane, f.V)
	p.mvGrid = make([]codec.MV, se.gw*se.gh)
	if se.opts.AnalyzeIntra {
		p.intraGrid = make([]uint32, se.gw*se.gh)
	}
	if err := p.setQIndex(se.qindex, se.spec.rdBonus); err != nil {
		return nil, err
	}
	return p, nil
}

// padInto copies src into the top-left of dst and extends the last row
// and column into the padding.
func padInto(dst, src *video.Plane) {
	for y := 0; y < dst.H; y++ {
		sy := y
		if sy >= src.H {
			sy = src.H - 1
		}
		drow := dst.Row(y)
		srow := src.Row(sy)
		copy(drow, srow)
		for x := src.W; x < dst.W; x++ {
			drow[x] = srow[src.W-1]
		}
	}
}

// workScratch is per-segment scratch memory, registered in the traced
// address space so its (hot, small) accesses shape L1 behaviour.
type workScratch struct {
	pred   []byte
	pred2  []byte
	res    []int32
	res2   []int32
	coef   []int32
	lev    []int32
	rec    []byte
	border [2 * sbSize]byte // intra neighbours: top row, then left column
	vbase  uint64
}

func newWorkScratch(as *trace.AddressSpace, name string) (*workScratch, error) {
	const n = sbSize * sbSize
	r, err := as.Alloc("scratch/"+name, n*24)
	if err != nil {
		return nil, err
	}
	return &workScratch{
		pred:  make([]byte, n),
		pred2: make([]byte, n),
		res:   make([]int32, n),
		res2:  make([]int32, n),
		coef:  make([]int32, n),
		lev:   make([]int32, n),
		rec:   make([]byte, n),
		vbase: r.Base,
	}, nil
}

// segCtx is the state of one entropy partition (segment/tile) during a
// frame encode.
type segCtx struct {
	se         *streamEncoder
	pic        *picture
	prev       *picture // reference picture (nil on keyframes)
	prev2      *picture // second reference (may be nil)
	enc        *entropy.Encoder
	pm         *probModel
	tc         *trace.Ctx
	scratch    *workScratch
	prevMV     codec.MV
	segTopPx   int // first luma row of the segment (prediction break above)
	segEndPx   int
	segLeftPx  int // first luma column (prediction break to the left)
	segRightPx int // one past the segment's last luma column
	// shapeCount tallies committed partition decisions, merged into the
	// picture when the segment finishes.
	shapeCount [numShapes]uint64
	skipCount  uint64
}

// leafPlan is one chosen coding block.
type leafPlan struct {
	x, y, w, h int
	skip       bool
	inter      bool
	mv         codec.MV
	ref2       bool
	sub        motion.SubPel // half-pel phase (inter, halfPel tool only)
	mode       intra.Mode
	cost       int64
	bits       int // estimated coded bits (full-RD mode decision only)
}

// planNode is a chosen partition subtree.
type planNode struct {
	shape    Shape
	x, y, n  int
	leaves   []leafPlan
	children [4]*planNode
	cost     int64
}

// ---------------------------------------------------------------------
// Analysis stage: open-loop motion estimation per 16×16 grid cell
// against the previous source frame. Runs before (and, in the SVT
// model, concurrently with) the closed-loop encode.

// analyzeRows runs motion analysis for grid rows [gy0, gy1) × grid
// columns [gx0, gx1) of pic. Regions given to concurrent tasks must be
// disjoint: the left-neighbour MV predictor chain restarts at gx0.
func (se *streamEncoder) analyzeRows(tc *trace.Ctx, pic, prev *picture, gy0, gy1, gx0, gx1 int) error {
	if prev == nil {
		return nil
	}
	tc.Enter(fnAnalysis)
	defer tc.Leave()
	if c := se.opts.AnalysisConsume; c != nil {
		c.copyRows(tc, pic, se.gw, gy0, gy1, gx0, gx1)
		return nil
	}
	for gy := gy0; gy < gy1; gy++ {
		for gx := gx0; gx < gx1; gx++ {
			pred := codec.MV{}
			if gx > gx0 {
				pred = pic.mvGrid[gy*se.gw+gx-1]
			}
			res, err := motion.Search(tc, se.ts.motionAlg, pic.srcY, gx*analysisGrid, gy*analysisGrid,
				prev.srcY, analysisGrid, analysisGrid, se.ts.motionRange, pred)
			if err != nil {
				return err
			}
			pic.mvGrid[gy*se.gw+gx] = res.MV
		}
	}
	if se.opts.AnalyzeIntra {
		if err := se.analyzeIntraRows(tc, pic, gy0, gy1, gx0, gx1); err != nil {
			return err
		}
	}
	if c := se.opts.AnalysisPublish; c != nil {
		c.publishRows(pic, se.gw, gy0, gy1, gx0, gx1)
	}
	return nil
}

// ---------------------------------------------------------------------
// Mode decision.

// clampedStep saturates the quantizer step used by pruning heuristics.
// Real encoders' early-exit thresholds stop tightening at very coarse
// quantizers (decision noise would otherwise dominate); the clamp keeps
// the search-space gap between codec families visible at high CRF, as
// Fig. 1 of the paper shows.
func (sc *segCtx) clampedStep() float64 {
	const maxPruneStep = 48
	if sc.pic.step > maxPruneStep {
		return maxPruneStep
	}
	return sc.pic.step
}

// skipThreshold is the SAD below which a block is coded as SKIP.
func (sc *segCtx) skipThreshold(area int) int32 {
	return int32(sc.se.ts.skipBias * sc.clampedStep() * float64(area) / 6)
}

// earlyExitThreshold prunes the partition-shape search when coding the
// whole block is already cheap relative to the quantizer scale. The
// threshold lives in the mode-decision cost domain: SSE-domain costs
// scale with step² (quantization error ∝ step²/12 per sample), SATD
// costs with step, so each domain gets the matching exponent and the
// exit *fraction* stays content-driven rather than collapsing at coarse
// quantizers.
func (sc *segCtx) earlyExitThreshold(area int) int64 {
	var t float64
	step := sc.pic.step
	if sc.se.ts.fullRD {
		t = sc.se.ts.earlyExitBias * step * step * float64(area) / 14
	} else {
		t = sc.se.ts.earlyExitBias * step * float64(area) / 2
	}
	return int64(t)
}

func mvBits(mv, pred codec.MV) int {
	b := 0
	for _, d := range [2]int32{int32(mv.X) - int32(pred.X), int32(mv.Y) - int32(pred.Y)} {
		u := uint32(d<<1) ^ uint32(d>>31)
		b += 2*bits.Len32(u+1) - 1
	}
	return b
}

// extractPred copies the w×h block at (x, y) of ref into dst, reporting
// the loads and stores of the motion-compensation copy.
func extractPred(tc *trace.Ctx, ref codec.Surface, x, y, w, h int, dst []byte, dstVBase uint64) {
	for j := 0; j < h; j++ {
		copy(dst[j*w:j*w+w], ref.Pix[(y+j)*ref.Stride+x:(y+j)*ref.Stride+x+w])
	}
	vec := (w + 31) / 32
	pc := pcPredCopy[blkClass(w)]
	tc.Loads(pc, ref.VAddr(x, y), h*vec, ref.Stride, min(w, 32))
	tc.Stores(pc, dstVBase, h*vec, w, min(w, 32))
	tc.Loop(pc, (h+3)/4)
}

// gatherBorders collects reconstructed (or, during search, source)
// border samples for intra prediction of an n-wide block at (x, y).
func (sc *segCtx) gatherBorders(surf codec.Surface, x, y, n int) intra.Neighbors {
	nb := gatherBordersPlane(surf.Plane, x, y, n, sc.segTopPx, sc.segLeftPx, sc.scratch.border[:])
	if nb.HasTop {
		sc.tc.Loads(pcBorderLoad, surf.VAddr(x, y-1), (n+31)/32, 32, min(n, 32))
	}
	if nb.HasLeft {
		sc.tc.Loads(pcBorderLoad, surf.VAddr(x-1, y), n, surf.Stride, 1)
	}
	return nb
}

// gatherBordersPlane collects the border samples intra prediction of an
// n-wide block at (x, y) reads from p: the row above when y > topPx and
// the column to its left when x > leftPx. It copies them into buf
// (caller-owned, 2n bytes) and the Neighbors alias it, so they are dead
// once buf is gathered into again.
func gatherBordersPlane(p *video.Plane, x, y, n, topPx, leftPx int, buf []byte) intra.Neighbors {
	nb := intra.Neighbors{}
	if y > topPx {
		nb.HasTop = true
		nb.Top = buf[:n:n]
		copy(nb.Top, p.Pix[(y-1)*p.Stride+x:(y-1)*p.Stride+x+n])
	}
	if x > leftPx {
		nb.HasLeft = true
		nb.Left = buf[n : 2*n : 2*n]
		for j := range nb.Left {
			nb.Left[j] = p.Pix[(y+j)*p.Stride+x-1]
		}
	}
	return nb
}

// residualCost evaluates the RD cost of coding the residual in
// sc.scratch.res for a w×h block: transform-domain full RD at slow
// presets, SATD at fast ones. Extra instructions at slow presets are the
// point — that is where preset-dependent effort comes from. For the full
// RD path it also returns the estimated coefficient bits, which the
// partition search uses for its early-exit heuristic.
func (sc *segCtx) residualCost(w, h int) (int64, int, error) {
	se := sc.se
	s := sc.scratch
	if !se.ts.fullRD {
		satd, err := transform.SATD(sc.tc, s.res, w, h)
		if err != nil {
			return 0, 0, err
		}
		return int64(satd), 0, nil
	}
	side := min(w, h, sbSize)
	evalTx := func(side int) (int64, int, error) {
		var total int64
		var bits int
		tile := s.res2
		for ty := 0; ty < h; ty += side {
			for tx := 0; tx < w; tx += side {
				for j := 0; j < side; j++ {
					copy(tile[j*side:(j+1)*side], s.res[(ty+j)*w+tx:(ty+j)*w+tx+side])
				}
				if err := transform.Forward(sc.tc, tile[:side*side], side, s.coef[:side*side]); err != nil {
					return 0, 0, err
				}
				if _, err := quant.Quantize(sc.tc, s.coef[:side*side], sc.pic.qindex, s.lev[:side*side]); err != nil {
					return 0, 0, err
				}
				bitsEst := rdo.BitsEstimate(s.lev[:side*side])
				if err := quant.Dequantize(sc.tc, s.lev[:side*side], sc.pic.qindex, s.coef[:side*side]); err != nil {
					return 0, 0, err
				}
				if err := transform.Inverse(sc.tc, s.coef[:side*side], side, tile[:side*side]); err != nil {
					return 0, 0, err
				}
				sse := codec.TileSSE(s.res[ty*w+tx:], w, tile, side, side, side)
				sc.tc.Op(trace.OpAVX, side*side/8+1)
				total += rdo.Cost(sse, bitsEst, sc.pic.lambda)
				bits += bitsEst
			}
		}
		return total, bits, nil
	}
	cost, bits, err := evalTx(side)
	if err != nil {
		return 0, 0, err
	}
	if se.ts.txSplitSearch && side >= 8 {
		// Also evaluate the split transform and keep the better cost —
		// AV1's transform-size search, doubling the transform work at the
		// slowest presets.
		c2, b2, err := evalTx(side / 2)
		if err != nil {
			return 0, 0, err
		}
		if c2 < cost {
			cost, bits = c2, b2
		}
	}
	return cost, bits, nil
}

// chooseLeafMode picks the best coding mode for the block (x, y, w, h).
func (sc *segCtx) chooseLeafMode(x, y, w, h int) (leafPlan, error) {
	se := sc.se
	s := sc.scratch
	tc := sc.tc
	tc.Enter(fnModeDec)
	defer tc.Leave()
	area := w * h
	best := leafPlan{x: x, y: y, w: w, h: h, cost: 1 << 60}
	// Candidate-management bookkeeping: context setup, neighbour fetch,
	// cost-array maintenance.
	tc.Op(trace.OpOther, 30)
	tc.Loads(pcModeBetter[blkClass(w)], trace.ScratchBase+0x6000, 4, 8, 8)
	tc.Stores(pcModeBetter[blkClass(w)], trace.ScratchBase+0x6000, 2, 8, 8)

	if !sc.pic.isKey && sc.prev != nil {
		// SKIP test at the inherited motion vector.
		pmv := sc.clampMV(sc.prevMV, x, y, w, h)
		sad, err := motion.SAD(tc, sc.pic.srcY, x, y, sc.prev.recY, x+int(pmv.X), y+int(pmv.Y), w, h)
		if err != nil {
			return best, err
		}
		isSkip := sad < sc.skipThreshold(area)
		tc.Branch(pcSkipTest[blkClass(w)], isSkip)
		if isSkip {
			best = leafPlan{x: x, y: y, w: w, h: h, skip: true, inter: true, mv: pmv,
				cost: int64(sad) + int64(sc.pic.sqrtL*2), bits: 2}
			return best, nil
		}

		// Motion refinement around the analysis MV.
		seed := sc.analysisMV(x, y)
		refs, nrefs := [2]*picture{sc.prev, sc.prev2}, 1
		if se.ts.refs >= 2 && sc.prev2 != nil {
			nrefs = 2
		}
		for ri, ref := range refs[:nrefs] {
			res, err := motion.Search(tc, se.ts.motionAlg, sc.pic.srcY, x, y, ref.recY, w, h, se.ts.refineRange+int16abs(seed), seed)
			if err != nil {
				return best, err
			}
			sub := motion.SubPel{}
			if se.ts.halfPel {
				if sub, err = sc.halfPelRefine(ref, res.MV, x, y, w, h); err != nil {
					return best, err
				}
			}
			if sub.X == 0 && sub.Y == 0 {
				extractPred(tc, ref.recY, x+int(res.MV.X), y+int(res.MV.Y), w, h, s.pred, s.vbase)
			} else if err := motion.InterpHalfPel(tc, ref.recY, x+int(res.MV.X), y+int(res.MV.Y), sub, w, h, s.pred); err != nil {
				return best, err
			}
			codec.Residual(tc, blockOf(sc.pic.srcY, x, y, w, h, s.rec), s.pred, w, h, s.res)
			dist, coefBits, err := sc.residualCost(w, h)
			if err != nil {
				return best, err
			}
			bitCost := mvBits(res.MV, sc.prevMV) + 3 + ri
			if se.ts.halfPel {
				bitCost += 2
			}
			cost := dist + int64(sc.rateMul()*float64(bitCost))
			better := cost < best.cost
			tc.Branch(pcModeBetter[blkClass(w)], better)
			if better {
				best = leafPlan{x: x, y: y, w: w, h: h, inter: true, mv: res.MV, ref2: ri == 1, sub: sub, cost: cost, bits: coefBits + bitCost}
			}
		}
	}

	// Intra candidates: always on keyframes; on inter frames only when
	// inter coding is struggling (or at exhaustive presets).
	tryIntra := sc.pic.isKey || w == h && (se.ts.fullRD || best.cost > int64(2*sc.pic.step*sc.pic.step*float64(area)))
	if !sc.pic.isKey {
		tc.Branch(pcIntraTry, tryIntra)
	}
	if tryIntra && w == h {
		nb := sc.gatherBorders(sc.pic.srcY, x, y, w) // open-loop borders during search
		cur := blockOf(sc.pic.srcY, x, y, w, h, s.rec)
		for _, m := range se.ts.intraModes {
			if err := intra.Predict(tc, m, nb, w, s.pred); err != nil {
				return best, err
			}
			codec.Residual(tc, cur, s.pred, w, h, s.res)
			dist, coefBits, err := sc.residualCost(w, h)
			if err != nil {
				return best, err
			}
			cost := dist + int64(sc.rateMul()*float64(5))
			better := cost < best.cost
			tc.Branch(pcModeBetter[blkClass(w)], better)
			if better {
				best = leafPlan{x: x, y: y, w: w, h: h, inter: false, mode: m, cost: cost, bits: coefBits + 5}
			}
		}
	}
	if best.cost == 1<<60 {
		return best, fmt.Errorf("encoders: no coding mode available for %dx%d block at (%d,%d)", w, h, x, y)
	}
	return best, nil
}

// rateMul returns the bit-cost multiplier matching the active
// distortion domain (SSE for full RD, SATD otherwise).
func (sc *segCtx) rateMul() float64 {
	if sc.se.ts.fullRD {
		return sc.pic.lambda
	}
	return sc.pic.sqrtL
}

func int16abs(mv codec.MV) int {
	a := int(mv.X)
	if a < 0 {
		a = -a
	}
	b := int(mv.Y)
	if b < 0 {
		b = -b
	}
	if b > a {
		a = b
	}
	return min(a, 8)
}

// analysisMV returns the open-loop MV of the grid cell containing the
// block center, clamped to the segment's own analysis region so that
// concurrently encoded segments never read each other's in-flight
// analysis results.
func (sc *segCtx) analysisMV(x, y int) codec.MV {
	gx := (x + analysisGrid/2) / analysisGrid
	gy := (y + analysisGrid/2) / analysisGrid
	if right := sc.segRightPx / analysisGrid; sc.segRightPx > 0 && gx >= right {
		gx = right - 1
	}
	if gx >= sc.se.gw {
		gx = sc.se.gw - 1
	}
	if top := sc.segTopPx / analysisGrid; gy < top {
		gy = top
	}
	if end := sc.segEndPx / analysisGrid; sc.segEndPx > 0 && gy >= end {
		gy = end - 1
	}
	if gy >= sc.se.gh {
		gy = sc.se.gh - 1
	}
	return sc.pic.mvGrid[gy*sc.se.gw+gx]
}

// halfPelRefine evaluates the three half-sample phases around an
// integer MV by plain SAD and returns the best phase (integer included).
// Phases whose interpolation would read outside the frame are skipped.
func (sc *segCtx) halfPelRefine(ref *picture, mv codec.MV, x, y, w, h int) (motion.SubPel, error) {
	se := sc.se
	s := sc.scratch
	tc := sc.tc
	cur := blockOf(sc.pic.srcY, x, y, w, h, s.rec)
	rx, ry := x+int(mv.X), y+int(mv.Y)
	best := motion.SubPel{}
	bestSAD := int32(1 << 30)
	for _, sub := range [4]motion.SubPel{{}, {X: 1}, {Y: 1}, {X: 1, Y: 1}} {
		if rx+w+int(sub.X) > se.aw || ry+h+int(sub.Y) > se.ah {
			continue
		}
		if err := motion.InterpHalfPel(tc, ref.recY, rx, ry, sub, w, h, s.pred2); err != nil {
			return best, err
		}
		sad := motion.BufferSAD(cur, s.pred2, w, h)
		tc.Op(trace.OpAVX, w*h/16+1)
		betterSub := sad < bestSAD
		tc.Branch(pcSkipTest[blkClass(w)], betterSub)
		if betterSub {
			bestSAD = sad
			best = sub
		}
	}
	return best, nil
}

// clampMV restricts mv so the w×h block at (x, y) stays inside the
// aligned frame.
func (sc *segCtx) clampMV(mv codec.MV, x, y, w, h int) codec.MV {
	se := sc.se
	mx, my := int(mv.X), int(mv.Y)
	if x+mx < 0 {
		mx = -x
	}
	if y+my < 0 {
		my = -y
	}
	if x+mx+w > se.aw {
		mx = se.aw - w - x
	}
	if y+my+h > se.ah {
		my = se.ah - h - y
	}
	return codec.MV{X: int16(mx), Y: int16(my)}
}

// blockOf copies the block into scratch and returns it (row-major,
// stride w). The copy is not separately instrumented; the consuming
// kernels report their own loads against the surface address.
func blockOf(surf codec.Surface, x, y, w, h int, buf []byte) []byte {
	for j := 0; j < h; j++ {
		copy(buf[j*w:(j+1)*w], surf.Pix[(y+j)*surf.Stride+x:(y+j)*surf.Stride+x+w])
	}
	return buf[:w*h]
}

// ---------------------------------------------------------------------
// Partition search.

func (sc *segCtx) shapeSignalBits(depth int) float64 { return float64(2 + depth) }

// searchPartition explores the family's partition shapes for the n×n
// block at (x, y) and returns the cheapest plan. none is the block's
// entry in its parent's sub-block memo (nil at the superblock root): the
// block whole is its parent's quadrant. Candidates are costed on the
// stack; only the winner is allocated.
func (sc *segCtx) searchPartition(x, y, n, depth int, none *leafMemo) (*planNode, error) {
	se := sc.se
	sc.tc.Op(trace.OpOther, 14) // partition-context bookkeeping
	leaf, err := sc.decideLeaf(none, x, y, n, n)
	if err != nil {
		return nil, err
	}
	signal := int64(sc.rateMul() * sc.shapeSignalBits(depth))
	best := planNode{shape: ShapeNone, x: x, y: y, n: n, cost: leaf.cost + signal}

	// Early exit: cheap blocks do not justify exploring more shapes.
	// Full-RD presets exit when the whole block codes into a trivial
	// number of bits (bit costs shrink smoothly as CRF coarsens the
	// quantizer, which is how higher CRF mechanically removes
	// instructions, §4.2.1); SATD presets exit on a quantizer-scaled
	// distortion threshold.
	var early bool
	if se.ts.fullRD {
		early = leaf.skip || leaf.bits <= int(14*se.ts.earlyExitBias)
	} else {
		early = leaf.skip || best.cost < sc.earlyExitThreshold(n*n)
	}
	sc.tc.Branch(pcPartEarly[min(depth, 3)], early)
	if early || n <= se.ts.minBlock {
		best.leaves = []leafPlan{leaf}
		return &best, nil
	}

	var (
		memo       [8]leafMemo // this node's sub-blocks, see memoSlot
		bestLeaves [4]leafPlan
		leaves     [4]leafPlan
		rects      [4]rect
	)
	bestLeaves[0] = leaf
	nBest := 1

	// Rectangular (non-recursive) shapes; inter-only, so skipped on
	// keyframes.
	if !sc.pic.isKey {
		for _, shape := range se.ts.shapes {
			sub := shape.subBlocks(x, y, n, &rects)
			if sub == nil {
				continue
			}
			cost := signal
			ok := true
			for i, r := range sub {
				lf, err := sc.decideLeaf(memoSlot(&memo, x, y, n, r), r.x, r.y, r.w, r.h)
				if err != nil {
					return nil, err
				}
				if !lf.inter && lf.w != lf.h {
					ok = false
					break
				}
				leaves[i] = lf
				cost += lf.cost
			}
			if ok && sc.beats(shape, cost, best.cost) {
				best = planNode{shape: shape, x: x, y: y, n: n, cost: cost}
				bestLeaves, nBest = leaves, len(sub)
			}
		}
	}

	// Recursive split: each child's block whole is this node's quadrant.
	if se.ts.trySplit && n/2 >= se.ts.minBlock {
		cand := planNode{shape: ShapeSplit, x: x, y: y, n: n, cost: signal}
		half := n / 2
		for i, off := range [4][2]int{{0, 0}, {half, 0}, {0, half}, {half, half}} {
			child, err := sc.searchPartition(x+off[0], y+off[1], half, depth+1, &memo[i])
			if err != nil {
				return nil, err
			}
			cand.children[i] = child
			cand.cost += child.cost
		}
		if sc.beats(ShapeSplit, cand.cost, best.cost) {
			best, nBest = cand, 0
		}
	}
	if nBest > 0 {
		best.leaves = append([]leafPlan(nil), bestLeaves[:nBest]...)
	}
	return &best, nil
}

// beats reports, as the modeled shape-comparison branch, whether a
// candidate of the given shape costs less than the best plan so far.
func (sc *segCtx) beats(shape Shape, cost, best int64) bool {
	better := cost < best
	sc.tc.Branch(pcPartBetter[int(shape)%len(pcPartBetter)], better)
	return better
}

// leafMemo is one sub-block's mode decision, kept for the other shapes
// of the same partition node that code the same rectangle.
type leafMemo struct {
	done bool
	leaf leafPlan
	span trace.Span // what deciding it reported, on a context that can repeat it
}

// memoSlot returns the entry of memo, the sub-block memo of the n×n
// node at (x, y), that r takes: quadrants 0–3 in raster order, then the
// horizontal halves and the vertical halves. The quarter strips of
// HORZ_4 and VERT_4 are coded by no other shape and take none.
func memoSlot(memo *[8]leafMemo, x, y, n int, r rect) *leafMemo {
	h := n / 2
	i, j := (r.x-x)/h, (r.y-y)/h
	switch {
	case r.w == h && r.h == h:
		return &memo[2*j+i]
	case r.w == n && r.h == h:
		return &memo[4+j]
	case r.w == h && r.h == n:
		return &memo[6+i]
	}
	return nil
}

// decideLeaf is chooseLeafMode through m, the rectangle's memo entry
// (nil: none). Within one superblock's search a leaf decision is a pure
// function of its rectangle, so on a context that can repeat a span
// (nil, count-only, or recording and nothing else; see trace.Ctx.Mark)
// each entry is decided once, and a repeat returns the kept plan and
// reports again what deciding it reported: its counts, and on a
// recording context its tape records, copied. A span that has left the
// tape's ring is decided again. A context with sinks or a profile
// decides every time: they see every event.
func (sc *segCtx) decideLeaf(m *leafMemo, x, y, w, h int) (leafPlan, error) {
	if m == nil {
		return sc.chooseLeafMode(x, y, w, h)
	}
	if m.done && sc.tc.Repeat(&m.span) {
		return m.leaf, nil
	}
	mark, ok := sc.tc.Mark()
	lf, err := sc.chooseLeafMode(x, y, w, h)
	if err != nil || !ok {
		return lf, err
	}
	m.done, m.leaf, m.span = true, lf, sc.tc.Since(mark)
	return lf, nil
}

// ---------------------------------------------------------------------
// Commit: signal the chosen tree and write the reconstruction.

// shapeList returns the non-NONE shapes this configuration can signal,
// in canonical order (SPLIT first, then the toolset's rect shapes).
// NONE itself is carried by the partition flag.
func (se *streamEncoder) shapeList() []Shape {
	out := make([]Shape, 0, 1+len(se.ts.shapes))
	out = append(out, ShapeSplit)
	return append(out, se.ts.shapes...)
}

// shapeIndexBits returns how many flat bits signal a non-NONE shape
// choice: an index into shapeList.
func (se *streamEncoder) shapeIndexBits() int {
	n := bits.Len(uint(len(se.shapeList()) - 1))
	if n < 1 {
		n = 1
	}
	return n
}

func (sc *segCtx) commitNode(node *planNode, depth int) error {
	sc.shapeCount[node.shape]++
	isNone := node.shape == ShapeNone
	sc.enc.SetSite(pcSynPart)
	sc.enc.BitAdaptive(boolBit(!isNone), &sc.pm.partNone[min(depth, 3)])
	if !isNone {
		idx := -1
		for i, sh := range sc.se.shapeList() {
			if sh == node.shape {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("encoders: shape %v not in the configuration's shape list", node.shape)
		}
		sc.enc.Literal(uint32(idx), sc.se.shapeIndexBits())
	}
	sc.enc.SetSite(0)
	if node.shape == ShapeSplit {
		for _, child := range node.children {
			if child == nil {
				return fmt.Errorf("encoders: split node missing child at (%d,%d)", node.x, node.y)
			}
			if err := sc.commitNode(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range node.leaves {
		if err := sc.commitLeaf(&node.leaves[i]); err != nil {
			return err
		}
	}
	return nil
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commitLeaf writes one leaf's syntax and reconstruction.
func (sc *segCtx) commitLeaf(lf *leafPlan) error {
	se := sc.se
	s := sc.scratch
	tc := sc.tc
	tc.Enter(fnCommit)
	defer tc.Leave()
	tc.Op(trace.OpOther, 26) // syntax bookkeeping
	tc.Stores(pcModeBetter[blkClass(lf.w)], trace.ScratchBase+0x6800, 8, 8, 8)

	if !sc.pic.isKey {
		sc.enc.SetSite(pcSynSkip)
		sc.enc.BitAdaptive(boolBit(lf.skip), &sc.pm.skip)
		sc.enc.SetSite(0)
		if lf.skip {
			// SKIP inherits the decoder-visible predictor: the last
			// committed MV, clamped — the search-time estimate may differ
			// slightly, which is the usual estimate/commit gap.
			mv := sc.clampMV(sc.prevMV, lf.x, lf.y, lf.w, lf.h)
			lf.mv = mv // the chroma pass inherits the committed motion
			extractPred(tc, sc.prev.recY, lf.x+int(mv.X), lf.y+int(mv.Y), lf.w, lf.h, s.pred, s.vbase)
			writeBlock(tc, sc.pic.recY, lf.x, lf.y, lf.w, lf.h, s.pred)
			sc.prevMV = mv
			sc.skipCount++
			return nil
		}
		sc.enc.SetSite(pcSynInter)
		sc.enc.BitAdaptive(boolBit(lf.inter), &sc.pm.interFlg)
		sc.enc.SetSite(0)
	}

	if lf.inter {
		writeMV(sc.enc, sc.pm, lf.mv, sc.prevMV)
		ref := sc.prev
		if lf.ref2 {
			sc.enc.Bit(1, entropy.DefaultProb)
			ref = sc.prev2
		} else if se.ts.refs >= 2 && sc.prev2 != nil {
			sc.enc.Bit(0, entropy.DefaultProb)
		}
		if se.ts.halfPel {
			sc.enc.Literal(uint32(lf.sub.X), 1)
			sc.enc.Literal(uint32(lf.sub.Y), 1)
		}
		if lf.sub.X == 0 && lf.sub.Y == 0 {
			extractPred(tc, ref.recY, lf.x+int(lf.mv.X), lf.y+int(lf.mv.Y), lf.w, lf.h, s.pred, s.vbase)
		} else if err := motion.InterpHalfPel(tc, ref.recY, lf.x+int(lf.mv.X), lf.y+int(lf.mv.Y), lf.sub, lf.w, lf.h, s.pred); err != nil {
			return err
		}
		sc.prevMV = lf.mv
	} else {
		sc.enc.SetSite(pcSynMode)
		sc.enc.Literal(uint32(lf.mode), 4)
		sc.enc.SetSite(0)
		if lf.w != lf.h {
			return fmt.Errorf("encoders: rectangular intra leaf %dx%d at (%d,%d)", lf.w, lf.h, lf.x, lf.y)
		}
		nb := sc.gatherBorders(sc.pic.recY, lf.x, lf.y, lf.w) // closed-loop borders at commit
		if err := intra.Predict(tc, lf.mode, nb, lf.w, s.pred); err != nil {
			return err
		}
	}

	cur := blockOf(sc.pic.srcY, lf.x, lf.y, lf.w, lf.h, s.rec)
	codec.Residual(tc, cur, s.pred, lf.w, lf.h, s.res)

	// Transform, quantize, code and reconstruct per square tile.
	side := min(lf.w, lf.h, sbSize)
	tile := s.res2
	for ty := 0; ty < lf.h; ty += side {
		for tx := 0; tx < lf.w; tx += side {
			for j := 0; j < side; j++ {
				copy(tile[j*side:(j+1)*side], s.res[(ty+j)*lf.w+tx:(ty+j)*lf.w+tx+side])
			}
			if err := transform.Forward(tc, tile[:side*side], side, s.coef[:side*side]); err != nil {
				return err
			}
			if _, err := quant.Quantize(tc, s.coef[:side*side], sc.pic.qindex, s.lev[:side*side]); err != nil {
				return err
			}
			if err := writeCoefBlock(sc.enc, sc.pm, s.lev[:side*side], side); err != nil {
				return err
			}
			if err := quant.Dequantize(tc, s.lev[:side*side], sc.pic.qindex, s.coef[:side*side]); err != nil {
				return err
			}
			if err := transform.Inverse(tc, s.coef[:side*side], side, tile[:side*side]); err != nil {
				return err
			}
			for j := 0; j < side; j++ {
				copy(s.res[(ty+j)*lf.w+tx:(ty+j)*lf.w+tx+side], tile[j*side:(j+1)*side])
			}
		}
	}
	codec.Reconstruct(tc, s.pred, s.res[:lf.w*lf.h], lf.w, lf.h, s.rec)
	writeBlock(tc, sc.pic.recY, lf.x, lf.y, lf.w, lf.h, s.rec)
	return nil
}

// writeBlock stores a reconstructed block into the surface.
func writeBlock(tc *trace.Ctx, surf codec.Surface, x, y, w, h int, src []byte) {
	for j := 0; j < h; j++ {
		copy(surf.Pix[(y+j)*surf.Stride+x:(y+j)*surf.Stride+x+w], src[j*w:(j+1)*w])
	}
	vec := (w + 31) / 32
	tc.Stores(pcPredCopy[blkClass(w)], surf.VAddr(x, y), h*vec, surf.Stride, min(w, 32))
}

// ---------------------------------------------------------------------
// Chroma: coded per superblock with the decision inherited from luma.

func (sc *segCtx) encodeChromaSB(sbx, sby int, lumaPlan *planNode) error {
	tc := sc.tc
	tc.Enter(fnChroma)
	defer tc.Leave()
	// Inherit the first inter leaf's MV, or intra DC.
	var mv codec.MV
	interSB := false
	var ref *picture
	var walk func(n *planNode)
	walk = func(n *planNode) {
		if interSB || n == nil {
			return
		}
		if n.shape == ShapeSplit {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		for _, lf := range n.leaves {
			if lf.inter {
				interSB = true
				mv = lf.mv
				if lf.ref2 {
					ref = sc.prev2
				} else {
					ref = sc.prev
				}
				return
			}
		}
	}
	walk(lumaPlan)

	const cb = sbSize / 2
	cx, cy := sbx*cb, sby*cb
	s := sc.scratch
	for pi, pl := range [2]struct {
		src codec.Surface
		rec codec.Surface
	}{{sc.pic.srcU, sc.pic.recU}, {sc.pic.srcV, sc.pic.recV}} {
		if interSB && ref != nil {
			cmv := sc.clampChromaMV(mv, cx, cy, cb)
			var refPlane codec.Surface
			if pi == 0 {
				refPlane = ref.recU
			} else {
				refPlane = ref.recV
			}
			extractPred(tc, refPlane, cx+int(cmv.X), cy+int(cmv.Y), cb, cb, s.pred, s.vbase)
		} else {
			nb := gatherBordersPlane(pl.rec.Plane, cx, cy, cb, sc.segTopPx/2, sc.segLeftPx/2, s.border[:])
			if err := intra.Predict(tc, intra.DC, nb, cb, s.pred); err != nil {
				return err
			}
		}
		cur := blockOf(pl.src, cx, cy, cb, cb, s.rec)
		codec.Residual(tc, cur, s.pred, cb, cb, s.res)
		if err := transform.Forward(tc, s.res[:cb*cb], cb, s.coef[:cb*cb]); err != nil {
			return err
		}
		if _, err := quant.Quantize(tc, s.coef[:cb*cb], sc.pic.qindex, s.lev[:cb*cb]); err != nil {
			return err
		}
		if err := writeCoefBlock(sc.enc, sc.pm, s.lev[:cb*cb], cb); err != nil {
			return err
		}
		if err := quant.Dequantize(tc, s.lev[:cb*cb], sc.pic.qindex, s.coef[:cb*cb]); err != nil {
			return err
		}
		if err := transform.Inverse(tc, s.coef[:cb*cb], cb, s.res[:cb*cb]); err != nil {
			return err
		}
		codec.Reconstruct(tc, s.pred, s.res[:cb*cb], cb, cb, s.rec)
		writeBlock(tc, pl.rec, cx, cy, cb, cb, s.rec)
	}
	return nil
}

// cdefApply is a light constrained directional filter over one
// reconstructed superblock, standing in for AV1's CDEF/loop-restoration
// stages. It is shared verbatim by the encoder's in-loop pass and the
// decoder, so reconstructions stay bit-identical.
func cdefApply(rec *video.Plane, x0, y0 int, step float64) {
	thresh := int32(3 + step/4)
	for y := y0 + 1; y < y0+sbSize-1 && y < rec.H-1; y += 2 {
		row := rec.Pix[y*rec.Stride:]
		above := rec.Pix[(y-1)*rec.Stride:]
		below := rec.Pix[(y+1)*rec.Stride:]
		for x := x0 + 1; x < x0+sbSize-1; x++ {
			c := int32(row[x])
			avg := (int32(above[x]) + int32(below[x]) + int32(row[x-1]) + int32(row[x+1]) + 2) / 4
			d := avg - c
			if d > thresh {
				d = thresh
			} else if d < -thresh {
				d = -thresh
			}
			row[x] = byte(c + d/2)
		}
	}
}

// cdefSB runs the shared CDEF kernel in-loop with instrumentation.
func (sc *segCtx) cdefSB(sbx, sby int) {
	tc := sc.tc
	rec := sc.pic.recY
	x0, y0 := sbx*sbSize, sby*sbSize
	cdefApply(rec.Plane, x0, y0, sc.pic.step)
	tc.Loads(pcDeblockCmp, rec.VAddr(x0, y0), sbSize*sbSize/16, 16, 16)
	tc.Stores(pcDeblockCmp, rec.VAddr(x0, y0), sbSize*sbSize/32, 16, 16)
	tc.Op(trace.OpAVX, sbSize*sbSize/16)
	tc.Op(trace.OpOther, sbSize*3)
	tc.Stores(pcDeblockCmp, rec.VAddr(x0, y0), sbSize, 16, 8)
	tc.Loop(pcDeblockCmp, sbSize/4)
}

func (sc *segCtx) clampChromaMV(mv codec.MV, cx, cy, cb int) codec.MV {
	se := sc.se
	mx, my := int(mv.X)/2, int(mv.Y)/2
	if cx+mx < 0 {
		mx = -cx
	}
	if cy+my < 0 {
		my = -cy
	}
	if cx+mx+cb > se.aw/2 {
		mx = se.aw/2 - cb - cx
	}
	if cy+my+cb > se.ah/2 {
		my = se.ah/2 - cb - cy
	}
	return codec.MV{X: int16(mx), Y: int16(my)}
}

// ---------------------------------------------------------------------
// Deblocking filter: smooths 8-aligned block edges of the luma recon.
// It is real reconstruction work (it changes the reference the next
// frame predicts from) and the parallelizable helper workload of the
// x265 threading model.

func deblockRows(tc *trace.Ctx, rec codec.Surface, y0, y1 int, step float64) {
	tc.Enter(fnDeblock)
	defer tc.Leave()
	thresh := int32(4 + step/2)
	// Vertical edges.
	for y := y0; y < y1; y++ {
		row := rec.Pix[y*rec.Stride:]
		for x := 8; x < rec.W; x += 8 {
			a, b := int32(row[x-1]), int32(row[x])
			d := a - b
			if d < 0 {
				d = -d
			}
			strong := d < thresh && d > 0
			tc.Branch(pcDeblockCmp, strong)
			if strong {
				row[x-1] = byte((3*a + b + 2) / 4)
				row[x] = byte((a + 3*b + 2) / 4)
			}
		}
		tc.Loads(pcDeblockCmp, rec.VAddr(0, y), rec.W/32+1, 32, 32)
		tc.Op(trace.OpAVX, rec.W/16+1)
	}
	// Horizontal edges.
	for y := y0; y < y1; y++ {
		if y%8 != 0 || y == 0 {
			continue
		}
		rowA := rec.Pix[(y-1)*rec.Stride:]
		rowB := rec.Pix[y*rec.Stride:]
		for x := 0; x < rec.W; x++ {
			a, b := int32(rowA[x]), int32(rowB[x])
			d := a - b
			if d < 0 {
				d = -d
			}
			if d < thresh && d > 0 {
				rowA[x] = byte((3*a + b + 2) / 4)
				rowB[x] = byte((a + 3*b + 2) / 4)
			}
		}
		tc.Loads(pcDeblockCmp, rec.VAddr(0, y-1), rec.W/16+2, 32, 32)
		tc.Stores(pcDeblockCmp, rec.VAddr(0, y-1), rec.W/16+2, 32, 32)
		tc.Op(trace.OpAVX, rec.W/8+1)
		tc.Branch(pcDeblockCmp, true)
	}
}

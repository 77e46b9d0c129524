// Package motion implements block motion estimation: the SAD kernel and
// three search strategies (full, diamond, hexagon) over a reference
// surface. Search-strategy choice and range are preset knobs in the
// encoder models; the compare-and-update branches in the search loops
// are among the data-dependent branches the paper's CBP study exercises.
package motion

import (
	"fmt"

	"vcprof/internal/codec"
	"vcprof/internal/codec/kernel"
	"vcprof/internal/trace"
)

// Sites are specialized per block-size class, mirroring the per-size
// kernel specializations (sad8x8, sad16x16, …) of production encoders.
var (
	pcSADRow   = trace.Sites("motion.SAD/rowloop", 36)
	pcSADLoad  = trace.Sites("motion.SAD/refload", 36)
	pcSADCur   = trace.Sites("motion.SAD/curload", 36)
	pcBetter   = trace.Sites("motion.Search/better", 3)
	pcCandLoop = trace.Site("motion.Search/candloop")
	pcRefine   = trace.Sites("motion.Search/refineloop", 3)
	fnSAD      = trace.Func("motion.SAD")
	fnSearch   = trace.Func("motion.Search")
)

// sizeClass maps a dimension to {4,8,16,32,64,other} → 0..5.
func sizeClass(v int) int {
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

func sadSite(w, h int) int { return sizeClass(w)*6 + sizeClass(h) }

// SAD returns the sum of absolute differences between the w×h block at
// (cx, cy) in cur and the block at (rx, ry) in ref. Both blocks must be
// fully inside their surfaces.
func SAD(tc *trace.Ctx, cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) (int32, error) {
	if outside(cur, cx, cy, w, h) {
		return 0, outsideErr("current", cur, cx, cy, w, h)
	}
	if outside(ref, rx, ry, w, h) {
		return 0, outsideErr("reference", ref, rx, ry, w, h)
	}
	sum := kernel.SAD(cur.Pix, cur.Stride, cx, cy, ref.Pix, ref.Stride, rx, ry, w, h)
	if t := tc.Tally(trace.StageMotion); t.Ok() {
		tallySADs(t, w, h, 1)
	} else if tc != nil {
		reportSAD(tc, cur, cx, cy, ref, rx, ry, w, h)
	}
	return sum, nil
}

// outside reports whether the w×h block at (x, y) leaves s.
func outside(s codec.Surface, x, y, w, h int) bool {
	return x < 0 || y < 0 || x+w > s.W || y+h > s.H
}

func outsideErr(which string, s codec.Surface, x, y, w, h int) error {
	return fmt.Errorf("motion: %s block %d,%d %dx%d outside %dx%d", which, x, y, w, h, s.W, s.H)
}

// sadModel is what one SAD of a w×h block executes in the model: a
// vectorized psadbw-style kernel. Memory traffic is reported at 8-byte
// granularity (the scalar/SSE-width mixture Pin sees), rows loads of
// each block; arithmetic as one abs-diff-accumulate per 16 samples,
// SSE-width for narrow blocks; the row loop is 4x unrolled.
func sadModel(w, h int) (rows int, class trace.OpClass, arith, other, iters int) {
	rows = h * ((w + 15) / 16)
	class = trace.OpAVX
	if w <= 8 {
		class = trace.OpSSE
	}
	return rows, class, rows + h/4 + 1, h/2 + 2, (h + 3) / 4
}

// tallySADs adds n SADs of a w×h block to a count-only context: what
// reportSAD's calls count, down to their floors (a report of no
// instructions counts none, a loop of none one branch), n times.
func tallySADs(t trace.Tally, w, h, n int) {
	rows, class, arith, other, iters := sadModel(w, h)
	t.Add(trace.OpLoad, 2*max(rows, 0)*n)
	t.Add(class, max(arith, 0)*n)
	t.Add(trace.OpOther, max(other, 0)*n)
	t.Add(trace.OpBranch, max(iters, 1)*n)
}

// reportSAD tells a hooked context one SAD's events, in the SAD stage
// and profiled function: the one event sequence of a SAD, whether SAD
// or Search costed it.
func reportSAD(tc *trace.Ctx, cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) {
	rows, class, arith, other, iters := sadModel(w, h)
	prev := tc.BeginStage(trace.StageMotion)
	tc.Enter(fnSAD)
	sc := sadSite(w, h)
	tc.Loads(pcSADCur[sc], cur.VAddr(cx, cy), rows, cur.Stride, 16)
	tc.Loads(pcSADLoad[sc], ref.VAddr(rx, ry), rows, ref.Stride, 16)
	tc.Op(class, arith)
	tc.Op(trace.OpOther, other)
	tc.Loop(pcSADRow[sc], iters)
	tc.Leave()
	tc.EndStage(prev)
}

// BufferSAD returns the sum of absolute differences of two w×h blocks
// held row-major at stride w, such as InterpHalfPel's output. It
// reports nothing: the caller charges its own vector work.
func BufferSAD(a, b []byte, w, h int) int32 { return kernel.BufferSAD(a, b, w*h) }

// Result reports the outcome of a motion search.
type Result struct {
	MV     codec.MV
	Cost   int32
	Points int // candidate positions evaluated
}

// Algorithm selects a search strategy.
type Algorithm uint8

// Search strategies from cheapest to most exhaustive.
const (
	Hex Algorithm = iota
	Diamond
	Full
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Hex:
		return "hex"
	case Diamond:
		return "diamond"
	case Full:
		return "full"
	}
	return "?"
}

// stackRange is the widest search range whose visited set stays on
// Search's stack (536 bytes). The encoders' ranges end at 23.
const stackRange = 32

// Search finds the motion vector minimizing SAD for the w×h block at
// (bx, by) in cur against ref, constrained to |mv| <= rng and to
// in-frame positions. pred seeds the search (the MV predictor from
// neighbouring blocks).
//
// A round's centre is fixed, so its candidates are known before any is
// costed: the pred/zero pair, each pattern round and each row of a full
// search are collected in pattern order, clamped and less the vectors
// already tried, and costed four at a time by one kernel call. Then,
// candidate by candidate in the same order, the search runs the
// improvement test and, on a hooked context, reports the candidate's
// SAD and bookkeeping events. A count-only context is told nothing per
// candidate: one Tally at the end adds the evaluated points times a
// candidate's counts, and the round branches.
func Search(tc *trace.Ctx, alg Algorithm, cur codec.Surface, bx, by int, ref codec.Surface, w, h, rng int, pred codec.MV) (Result, error) {
	if rng < 1 {
		return Result{}, fmt.Errorf("motion: invalid search range %d", rng)
	}
	t := tc.Tally(trace.StageMotion)
	var s searcher // field by field: a literal is built aside and copied
	s.tc, s.hooked, s.pc = tc, tc != nil && !t.Ok(), pcBetter[int(alg)%3]
	s.cur, s.ref, s.bx, s.by, s.w, s.h = cur, ref, bx, by, w, h
	s.rng, s.side = rng, 2*rng+1
	s.xlo, s.xhi = max(-rng, -bx), min(rng, ref.W-w-bx)
	s.ylo, s.yhi = max(-rng, -by), min(rng, ref.H-h-by)
	s.best.Cost = 1 << 30
	if s.hooked {
		defer tc.EndStage(tc.BeginStage(trace.StageMotion))
		tc.Enter(fnSearch)
		defer tc.Leave()
	}
	// The vectors already evaluated, one bit per position of the
	// (2·rng+1)² window. add leaves a component outside ±rng only when
	// the reference cannot hold the block at any such offset, and then
	// pulls every candidate to the one offset that fits, so saturating
	// at the window's edge keeps distinct vectors distinct.
	var window [(2*stackRange+1)*(2*stackRange+1)/64 + 1]uint64
	s.tried = window[:]
	if words := s.side*s.side/64 + 1; words > len(s.tried) {
		s.tried = make([]uint64, words)
	}
	err := s.search(alg, pred)
	if t.Ok() {
		tallySADs(t, w, h, s.best.Points)
		t.Add(trace.OpBranch, s.best.Points+s.branches)
		t.Add(trace.OpOther, candOps*s.best.Points)
		t.Add(trace.OpStore, s.best.Points)
	}
	if err != nil {
		return Result{}, err
	}
	return s.best, nil
}

// searcher is one Search's state: the block, the visited set, the best
// candidate so far and the batch of candidates not yet costed.
type searcher struct {
	tc        *trace.Ctx
	hooked    bool
	pc        trace.PC // the improvement test's site
	cur, ref  codec.Surface
	bx, by    int
	w, h      int
	rng, side int
	xlo, xhi  int // add's clamp of a vector's components
	ylo, yhi  int
	tried     []uint64
	best      Result
	branches  int // round and row branches, for a count-only context

	n      int // candidates in the batch
	xs, ys [4]int
	mvs    [4]codec.MV
}

func (s *searcher) search(alg Algorithm, pred codec.MV) error {
	if outside(s.cur, s.bx, s.by, s.w, s.h) {
		return outsideErr("current", s.cur, s.bx, s.by, s.w, s.h)
	}
	if err := s.add(pred); err != nil {
		return err
	}
	if err := s.add(codec.MV{}); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	switch alg {
	case Full:
		for dy := -s.rng; dy <= s.rng; dy++ {
			for dx := -s.rng; dx <= s.rng; dx++ {
				if err := s.add(codec.MV{X: int16(dx), Y: int16(dy)}); err != nil {
					return err
				}
			}
			if err := s.flush(); err != nil {
				return err
			}
			if s.hooked {
				s.tc.Loop(pcCandLoop, s.side)
			} else {
				s.branches += s.side
			}
		}
	case Diamond:
		return s.patterns(alg, largeDiamond[:], smallDiamond[:])
	case Hex:
		return s.patterns(alg, hexagon[:], smallDiamond[:])
	default:
		return fmt.Errorf("motion: unknown algorithm %d", alg)
	}
	return nil
}

// patterns iterates a coarse pattern around the best point until no
// candidate improves, then refines with a fine pattern, the classic
// EPZS/hex structure. Iterations are bounded by the search range.
func (s *searcher) patterns(alg Algorithm, coarse, fine []codec.MV) error {
	for _, pattern := range [2][]codec.MV{coarse, fine} {
		for iter := 0; iter < s.rng; iter++ {
			center := s.best.MV
			prevCost := s.best.Cost
			for _, d := range pattern {
				if err := s.add(center.Add(d)); err != nil {
					return err
				}
			}
			if err := s.flush(); err != nil {
				return err
			}
			improved := s.best.Cost < prevCost
			if s.hooked {
				s.tc.Branch(pcRefine[int(alg)%3], improved)
			} else {
				s.branches++
			}
			if !improved {
				break
			}
		}
	}
	return nil
}

// add clamps mv to the window and the frame and, unless it was tried
// already, appends it to the batch, costing a full batch. A component
// is clamped to ±rng, then pulled right of the frame's left edge, then
// left of the point where the block would leave the reference's right
// edge, the last step winning. With the block inside cur (bx ≥ 0, so
// −bx ≤ rng) those three are one clamp, to [max(−rng, −bx), min(rng,
// ref.W−w−bx)], which holds the component at or below rng: only the
// window's low edge needs saturating.
func (s *searcher) add(mv codec.MV) error {
	mv = codec.MV{X: int16(min(max(int(mv.X), s.xlo), s.xhi)), Y: int16(min(max(int(mv.Y), s.ylo), s.yhi))}
	x, y := int(mv.X), int(mv.Y)
	bit := max(y+s.rng, 0)*s.side + max(x+s.rng, 0)
	if s.tried[bit>>6]&(1<<(bit&63)) != 0 {
		return nil
	}
	s.tried[bit>>6] |= 1 << (bit & 63)
	s.xs[s.n], s.ys[s.n], s.mvs[s.n] = s.bx+x, s.by+y, mv
	if s.n++; s.n == len(s.xs) {
		return s.flush()
	}
	return nil
}

// flush costs the batch in one kernel call, then takes its candidates
// in order. A candidate whose block leaves the reference ends the
// search with SAD's error once those before it are taken.
func (s *searcher) flush() error {
	n := s.n
	s.n = 0
	valid := n
	for k := 0; k < n; k++ {
		if outside(s.ref, s.xs[k], s.ys[k], s.w, s.h) {
			valid = k
			break
		}
	}
	var costs [4]int32
	if valid > 0 {
		kernel.SADx4(s.cur.Pix, s.cur.Stride, s.bx, s.by, s.ref.Pix, s.ref.Stride, &s.xs, &s.ys, valid, s.w, s.h, &costs)
	}
	for k := 0; k < valid; k++ {
		s.best.Points++
		// The improvement test: genuinely data-dependent direction;
		// then the candidate bookkeeping, clamp and cost update.
		better := costs[k] < s.best.Cost
		if s.hooked {
			reportSAD(s.tc, s.cur, s.bx, s.by, s.ref, s.xs[k], s.ys[k], s.w, s.h)
			s.tc.Branch(s.pc, better)
			s.tc.Op(trace.OpOther, candOps)
			s.tc.Stores(s.pc, trace.ScratchBase+0x7000, 1, 8, 8)
		}
		if better {
			s.best.Cost = costs[k]
			s.best.MV = s.mvs[k]
		}
	}
	if valid < n {
		return outsideErr("reference", s.ref, s.xs[valid], s.ys[valid], s.w, s.h)
	}
	return nil
}

var (
	largeDiamond = [8]codec.MV{{X: 0, Y: -2}, {X: 1, Y: -1}, {X: 2, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 2}, {X: -1, Y: 1}, {X: -2, Y: 0}, {X: -1, Y: -1}}
	hexagon      = [6]codec.MV{{X: -2, Y: 0}, {X: -1, Y: -2}, {X: 1, Y: -2}, {X: 2, Y: 0}, {X: 1, Y: 2}, {X: -1, Y: 2}}
	smallDiamond = [4]codec.MV{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
)

// candOps is what one evaluated candidate's bookkeeping executes.
const candOps = 9

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
	if cx < 0 || cy < 0 || cx+w > cur.W || cy+h > cur.H {
		return 0, fmt.Errorf("motion: current block %d,%d %dx%d outside %dx%d", cx, cy, w, h, cur.W, cur.H)
	}
	if rx < 0 || ry < 0 || rx+w > ref.W || ry+h > ref.H {
		return 0, fmt.Errorf("motion: reference block %d,%d %dx%d outside %dx%d", rx, ry, w, h, ref.W, ref.H)
	}
	sum := kernel.SAD(cur.Pix, cur.Stride, cx, cy, ref.Pix, ref.Stride, rx, ry, w, h)
	if tc == nil {
		return sum, nil
	}
	// Vectorized psadbw-style kernel. Memory traffic is reported at
	// 8-byte granularity (the scalar/SSE-width mixture Pin sees);
	// arithmetic as one abs-diff-accumulate per 16 samples, SSE-width
	// for narrow blocks; the row loop is 4x unrolled.
	rows := h * ((w + 15) / 16)
	class := trace.OpAVX
	if w <= 8 {
		class = trace.OpSSE
	}
	arith, other, iters := rows+h/4+1, h/2+2, (h+3)/4
	if t := tc.Tally(trace.StageMotion); t.Ok() {
		// What the calls below count, down to their floors: a report
		// of no instructions counts none, a loop of none one branch.
		t.Add(trace.OpLoad, 2*max(rows, 0))
		t.Add(class, max(arith, 0))
		t.Add(trace.OpOther, max(other, 0))
		t.Add(trace.OpBranch, max(iters, 1))
		return sum, nil
	}
	defer tc.EndStage(tc.BeginStage(trace.StageMotion))
	tc.Enter(fnSAD)
	sc := sadSite(w, h)
	tc.Loads(pcSADCur[sc], cur.VAddr(cx, cy), rows, cur.Stride, 16)
	tc.Loads(pcSADLoad[sc], ref.VAddr(rx, ry), rows, ref.Stride, 16)
	tc.Op(class, arith)
	tc.Op(trace.OpOther, other)
	tc.Loop(pcSADRow[sc], iters)
	tc.Leave()
	return sum, nil
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
func Search(tc *trace.Ctx, alg Algorithm, cur codec.Surface, bx, by int, ref codec.Surface, w, h, rng int, pred codec.MV) (Result, error) {
	if rng < 1 {
		return Result{}, fmt.Errorf("motion: invalid search range %d", rng)
	}
	// A count-only context is tallied in place; a hooked one is told
	// every event, inside the stage and the profiled function.
	t := tc.Tally(trace.StageMotion)
	hooked := tc != nil && !t.Ok()
	if hooked {
		defer tc.EndStage(tc.BeginStage(trace.StageMotion))
		tc.Enter(fnSearch)
		defer tc.Leave()
	}

	clampMV := func(mv codec.MV) codec.MV {
		x, y := int(mv.X), int(mv.Y)
		if x < -rng {
			x = -rng
		} else if x > rng {
			x = rng
		}
		if y < -rng {
			y = -rng
		} else if y > rng {
			y = rng
		}
		if bx+x < 0 {
			x = -bx
		}
		if by+y < 0 {
			y = -by
		}
		if bx+x+w > ref.W {
			x = ref.W - w - bx
		}
		if by+y+h > ref.H {
			y = ref.H - h - by
		}
		return codec.MV{X: int16(x), Y: int16(y)}
	}

	// The vectors already evaluated, one bit per position of the
	// (2·rng+1)² window. clampMV leaves a component outside ±rng only
	// when the reference cannot hold the block at any such offset, and
	// then pulls every candidate to the one offset that fits, so
	// saturating at the window's edge keeps distinct vectors distinct.
	side := 2*rng + 1
	var window [(2*stackRange+1)*(2*stackRange+1)/64 + 1]uint64
	tried := window[:]
	if words := side*side/64 + 1; words > len(tried) {
		tried = make([]uint64, words)
	}
	slot := func(v int16) int { return min(max(int(v)+rng, 0), side-1) }

	best := Result{Cost: 1 << 30}
	eval := func(mv codec.MV) error {
		mv = clampMV(mv)
		bit := slot(mv.Y)*side + slot(mv.X)
		if tried[bit>>6]&(1<<(bit&63)) != 0 {
			return nil
		}
		tried[bit>>6] |= 1 << (bit & 63)
		cost, err := SAD(tc, cur, bx, by, ref, bx+int(mv.X), by+int(mv.Y), w, h)
		if err != nil {
			return err
		}
		best.Points++
		// The improvement test: genuinely data-dependent direction;
		// then the candidate bookkeeping, clamp and cost update.
		better := cost < best.Cost
		if t.Ok() {
			t.Add(trace.OpBranch, 1)
			t.Add(trace.OpOther, candOps)
			t.Add(trace.OpStore, 1)
		} else if hooked {
			tc.Branch(pcBetter[int(alg)%3], better)
			tc.Op(trace.OpOther, candOps)
			tc.Stores(pcBetter[int(alg)%3], trace.ScratchBase+0x7000, 1, 8, 8)
		}
		if better {
			best.Cost = cost
			best.MV = mv
		}
		return nil
	}

	if err := eval(clampMV(pred)); err != nil {
		return Result{}, err
	}
	if err := eval(codec.MV{}); err != nil {
		return Result{}, err
	}

	switch alg {
	case Full:
		for dy := -rng; dy <= rng; dy++ {
			for dx := -rng; dx <= rng; dx++ {
				if err := eval(codec.MV{X: int16(dx), Y: int16(dy)}); err != nil {
					return Result{}, err
				}
			}
			if t.Ok() {
				t.Add(trace.OpBranch, 2*rng+1)
			} else if hooked {
				tc.Loop(pcCandLoop, 2*rng+1)
			}
		}
	case Diamond:
		if err := patternSearch(tc, t, alg, eval, &best, largeDiamond[:], smallDiamond[:], rng); err != nil {
			return Result{}, err
		}
	case Hex:
		if err := patternSearch(tc, t, alg, eval, &best, hexagon[:], smallDiamond[:], rng); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("motion: unknown algorithm %d", alg)
	}
	return best, nil
}

var (
	largeDiamond = [8]codec.MV{{X: 0, Y: -2}, {X: 1, Y: -1}, {X: 2, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 2}, {X: -1, Y: 1}, {X: -2, Y: 0}, {X: -1, Y: -1}}
	hexagon      = [6]codec.MV{{X: -2, Y: 0}, {X: -1, Y: -2}, {X: 1, Y: -2}, {X: 2, Y: 0}, {X: 1, Y: 2}, {X: -1, Y: 2}}
	smallDiamond = [4]codec.MV{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
)

// candOps is what one evaluated candidate's bookkeeping executes.
const candOps = 9

// patternSearch iterates a coarse pattern around the best point until no
// candidate improves, then refines with a fine pattern, the classic
// EPZS/hex structure. Iterations are bounded by the search range. Each
// round's improvement test is tallied in t when it is Ok.
func patternSearch(tc *trace.Ctx, t trace.Tally, alg Algorithm, eval func(codec.MV) error, best *Result, coarse, fine []codec.MV, rng int) error {
	for _, pattern := range [2][]codec.MV{coarse, fine} {
		for iter := 0; iter < rng; iter++ {
			center := best.MV
			prevCost := best.Cost
			for _, d := range pattern {
				if err := eval(center.Add(d)); err != nil {
					return err
				}
			}
			improved := best.Cost < prevCost
			if t.Ok() {
				t.Add(trace.OpBranch, 1)
			} else if tc != nil {
				tc.Branch(pcRefine[int(alg)%3], improved)
			}
			if !improved {
				break
			}
		}
	}
	return nil
}

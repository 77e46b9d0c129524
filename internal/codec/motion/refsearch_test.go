package motion

import (
	"fmt"

	"vcprof/internal/codec"
	"vcprof/internal/trace"
)

// The oracle of the batched search: the per-candidate loop it replaced,
// kept verbatim but for its name. Each candidate goes through SAD, so
// this search reports what SAD reports, one call at a time.

// refSearch is Search as it was before the batched kernel call: one SAD
// call, and its events, per candidate. It finds the motion vector minimizing SAD for the w×h block at
// (bx, by) in cur against ref, constrained to |mv| <= rng and to
// in-frame positions. pred seeds the search (the MV predictor from
// neighbouring blocks).
func refSearch(tc *trace.Ctx, alg Algorithm, cur codec.Surface, bx, by int, ref codec.Surface, w, h, rng int, pred codec.MV) (Result, error) {
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
		if err := refPatternSearch(tc, t, alg, eval, &best, largeDiamond[:], smallDiamond[:], rng); err != nil {
			return Result{}, err
		}
	case Hex:
		if err := refPatternSearch(tc, t, alg, eval, &best, hexagon[:], smallDiamond[:], rng); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("motion: unknown algorithm %d", alg)
	}
	return best, nil
}

// refPatternSearch is refSearch's pattern loop. It iterates a coarse pattern around the best point until no
// candidate improves, then refines with a fine pattern, the classic
// EPZS/hex structure. Iterations are bounded by the search range. Each
// round's improvement test is tallied in t when it is Ok.
func refPatternSearch(tc *trace.Ctx, t trace.Tally, alg Algorithm, eval func(codec.MV) error, best *Result, coarse, fine []codec.MV, rng int) error {
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

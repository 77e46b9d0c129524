package encoders

import (
	"vcprof/internal/codec"
	"vcprof/internal/codec/intra"
	"vcprof/internal/codec/transform"
	"vcprof/internal/trace"
)

// Open-loop intra analysis — the second half of the lookahead pass
// (Options.AnalyzeIntra). For every 16×16 analysis cell it estimates
// the cost of coding the cell without a temporal reference: a reduced
// fixed mode set (DC/vertical/horizontal, the set real lookaheads use
// regardless of preset) is predicted from *source* border samples at
// full cell resolution — the open-loop intra search SVT-AV1 runs in its
// motion-estimation stage — and the best residual SATD is stored in the
// picture's intra cost grid. Like the motion grid, the result depends
// only on the source pixels — never on CRF, preset or rate control — so
// ladder rungs share it bit-exactly and the live engine can use it as a
// frame-complexity signal without perturbing encode decisions.

var lookaheadModes = [...]intra.Mode{intra.DC, intra.Vertical, intra.Horizontal}

// analyzeIntraRows estimates open-loop intra cost for grid rows
// [gy0, gy1) × grid columns [gx0, gx1) of pic. Cells are independent
// (no predictor chain), so any disjoint region split is safe.
func (se *streamEncoder) analyzeIntraRows(tc *trace.Ctx, pic *picture, gy0, gy1, gx0, gx1 int) error {
	const n = analysisGrid
	var cur, pred [n * n]byte
	var border [2 * n]byte
	var res [n * n]int32
	for gy := gy0; gy < gy1; gy++ {
		for gx := gx0; gx < gx1; gx++ {
			x, y := gx*n, gy*n
			blockOf(pic.srcY, x, y, n, n, cur[:])
			tc.Loads(pcLookaheadLoad, pic.srcY.VAddr(x, y), n, pic.srcY.Stride, n)
			tc.Op(trace.OpSSE, n+2)

			nb := gatherBordersPlane(pic.srcY.Plane, x, y, n, 0, 0, border[:])
			if nb.HasTop {
				tc.Loads(pcLookaheadLoad, pic.srcY.VAddr(x, y-1), 1, 1, n)
			}
			if nb.HasLeft {
				tc.Loads(pcLookaheadLoad, pic.srcY.VAddr(x-1, y), n, pic.srcY.Stride, 1)
			}

			best := int32(1<<31 - 1)
			for _, m := range lookaheadModes {
				if err := intra.Predict(tc, m, nb, n, pred[:]); err != nil {
					return err
				}
				codec.Residual(tc, cur[:], pred[:], n, n, res[:])
				satd, err := transform.SATD(tc, res[:], n, n)
				if err != nil {
					return err
				}
				better := satd < best
				tc.Branch(pcLookaheadBest, better)
				if better {
					best = satd
				}
			}
			pic.intraGrid[gy*se.gw+gx] = uint32(best)
		}
	}
	return nil
}

var (
	pcLookaheadLoad = trace.Site("encoders.lookahead/block")
	pcLookaheadBest = trace.Site("encoders.lookahead/best")
)

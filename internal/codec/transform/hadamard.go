package transform

import (
	"fmt"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/trace"
)

var (
	pcSATDLoop = trace.Site("transform.SATD/blockloop")
	fnSATD     = trace.Func("transform.SATD")
)

// What one 4×4 tile reports: its four row loads, the butterflies (the
// tiles batched through 8-wide vectors), a transpose fix-up and the
// scalar bookkeeping.
const (
	tileLoads = 4
	tileAVX   = 8
	tileSSE   = 1
	tileOther = 2
)

// SATD computes the Hadamard-domain cost of a w×h residual (row-major,
// stride w; both multiples of 4) by tiling 4×4 SATDs, the standard
// mode-decision distortion metric at fast presets.
func SATD(tc *trace.Ctx, res []int32, w, h int) (int32, error) {
	if w%4 != 0 || h%4 != 0 || w <= 0 || h <= 0 {
		return 0, fmt.Errorf("transform: SATD size %dx%d not a positive multiple of 4", w, h)
	}
	total := kernel.SATD(res, w, h)
	// Per tile the four tile counts, per row of tiles its loop: one
	// branch a tile.
	if t := tc.Tally(trace.StageTransform); t.Ok() {
		tiles := w / 4 * (h / 4)
		t.Add(trace.OpLoad, tileLoads*tiles)
		t.Add(trace.OpAVX, tileAVX*tiles)
		t.Add(trace.OpSSE, tileSSE*tiles)
		t.Add(trace.OpOther, tileOther*tiles)
		t.Add(trace.OpBranch, tiles)
	} else if tc != nil {
		reportSATD(tc, w, h)
	}
	return total, nil
}

// reportSATD is SATD's event sequence on a hooked context.
func reportSATD(tc *trace.Ctx, w, h int) {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	tc.Enter(fnSATD)
	defer tc.Leave()
	for y := 0; y < h; y += 4 {
		for x := 0; x < w; x += 4 {
			tc.Loads(pcSATDLoop, trace.ScratchBase+0x5000, tileLoads, 8, 8)
			tc.Op(trace.OpAVX, tileAVX)
			tc.Op(trace.OpSSE, tileSSE)
			tc.Op(trace.OpOther, tileOther)
		}
		tc.Loop(pcSATDLoop, w/4)
	}
}

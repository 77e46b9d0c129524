package transform

import (
	"fmt"

	"vcprof/internal/trace"
)

var (
	pcSATDLoop = trace.Site("transform.SATD/blockloop")
	fnSATD     = trace.Func("transform.SATD")
)

// abs32 is |v| without a branch; like negation, it wraps MinInt32 to
// itself.
func abs32(v int32) int32 {
	m := v >> 31
	return (v ^ m) - m
}

// satd4x4 returns the sum of absolute Hadamard-transformed differences
// of the 4×4 residual tile whose rows start at res[0], res[w], res[2w]
// and res[3w], halved to approximate SAD scale, the convention x264
// uses. The 4-point Walsh–Hadamard butterflies run over the rows into
// locals, then down the columns; integer adds wrap, so the order of
// the sum does not change it.
func satd4x4(res []int32, w int) int32 {
	r0, r1, r2, r3 := res[0:4], res[w:w+4], res[2*w:2*w+4], res[3*w:3*w+4]
	// Row butterflies: (a, b, c, d) → (a+b+c+d, a−c+b−d, a+c−b−d, a−c−b+d).
	s0, s1, s2, s3 := r0[0]+r0[2], r0[0]-r0[2], r0[1]+r0[3], r0[1]-r0[3]
	a0, a1, a2, a3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r1[0]+r1[2], r1[0]-r1[2], r1[1]+r1[3], r1[1]-r1[3]
	b0, b1, b2, b3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r2[0]+r2[2], r2[0]-r2[2], r2[1]+r2[3], r2[1]-r2[3]
	c0, c1, c2, c3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r3[0]+r3[2], r3[0]-r3[2], r3[1]+r3[3], r3[1]-r3[3]
	d0, d1, d2, d3 := s0+s2, s1+s3, s0-s2, s1-s3
	// Column butterflies, summed as they come.
	var sum int32
	s0, s1, s2, s3 = a0+c0, a0-c0, b0+d0, b0-d0
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a1+c1, a1-c1, b1+d1, b1-d1
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a2+c2, a2-c2, b2+d2, b2-d2
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a3+c3, a3-c3, b3+d3, b3-d3
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	return sum / 2
}

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
	total := satdTiles(res, w, h)
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

// satdGeneric is satdTiles in portable Go: the only path off amd64 and
// on processors without AVX2, and the oracle the kernel is held to.
func satdGeneric(res []int32, w, h int) int32 {
	var total int32
	for y := 0; y < h; y += 4 {
		for x := 0; x < w; x += 4 {
			total += satd4x4(res[y*w+x:], w)
		}
	}
	return total
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

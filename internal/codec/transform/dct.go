// Package transform implements the block transforms of the encoder
// toolkit: an orthonormal separable DCT-II (sizes 4–32) used for coding,
// and an integer Walsh–Hadamard transform used for SATD during mode
// decision, mirroring how production encoders split cheap
// mode-decision metrics from the full coding transform.
package transform

import (
	"fmt"
	"math"
	"sync/atomic"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/trace"
)

// dctTables caches orthonormal DCT-II matrices, indexed by sizeIdx and
// built on first use.
var dctTables [4]atomic.Pointer[dctTable]

type dctTable struct {
	m  []float64 // row-major N×N forward matrix
	mt []float64 // transpose
}

func tableFor(n int) *dctTable {
	slot := &dctTables[sizeIdx(n)]
	if t := slot.Load(); t != nil {
		return t
	}
	t := &dctTable{m: make([]float64, n*n), mt: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for x := 0; x < n; x++ {
			v := c * math.Cos(math.Pi*float64(2*x+1)*float64(k)/float64(2*n))
			t.m[k*n+x] = v
			t.mt[x*n+k] = v
		}
	}
	slot.CompareAndSwap(nil, t)
	return slot.Load()
}

// Per-size transform specializations (dct4, dct8, dct16, dct32), each a
// distinct static code region like production SIMD transform sets.
var (
	pcFwdRow = trace.Sites("transform.Forward/rowpass", 4)
	pcFwdCol = trace.Sites("transform.Forward/colpass", 4)
	pcInvRow = trace.Sites("transform.Inverse/rowpass", 4)
	pcInvCol = trace.Sites("transform.Inverse/colpass", 4)
)

func sizeIdx(n int) int {
	switch n {
	case 4:
		return 0
	case 8:
		return 1
	case 16:
		return 2
	}
	return 3
}

func validSize(n int) error {
	switch n {
	case 4, 8, 16, 32:
		return nil
	}
	return fmt.Errorf("transform: unsupported size %d", n)
}

// Forward applies the N×N orthonormal DCT-II to the residual block src
// (row-major) and writes rounded coefficients to dst. src and dst must
// hold n*n values and may alias.
func Forward(tc *trace.Ctx, src []int32, n int, dst []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	if err := validSize(n); err != nil {
		return err
	}
	si := sizeIdx(n)
	// dst = M · src · Mᵀ: the row pass, then the column pass.
	separable[si](tableFor(n), src, dst, false)
	reportPass(tc, pcFwdRow[si], n)
	reportPass(tc, pcFwdCol[si], n)
	return nil
}

// Inverse applies the inverse transform of Forward. src and dst must
// hold n*n values and may alias.
func Inverse(tc *trace.Ctx, src []int32, n int, dst []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	if err := validSize(n); err != nil {
		return err
	}
	si := sizeIdx(n)
	// dst = Mᵀ · src · M: the column pass, then the row pass.
	separable[si](tableFor(n), src, dst, true)
	reportPass(tc, pcInvCol[si], n)
	reportPass(tc, pcInvRow[si], n)
	return nil
}

// separable holds one entry point per size, each with its scratch in
// its own stack frame: sized to the block, so a 4×4 call zeroes 256
// bytes and not the 16 KB a 32×32 needs, and reached through this
// table so the frames are not merged into the caller's.
var separable = [4]func(t *dctTable, src, dst []int32, inverse bool){
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 4 * 4]float64
		kernel.Transform2D(t.m, t.mt, 4, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 8 * 8]float64
		kernel.Transform2D(t.m, t.mt, 8, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 16 * 16]float64
		kernel.Transform2D(t.m, t.mt, 16, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 32 * 32]float64
		kernel.Transform2D(t.m, t.mt, 32, src, dst, s[:], inverse)
	},
}

// reportPass reports one separable transform pass. Production
// transforms are butterfly-factored (n·log2(n) multiply-adds per line,
// not n²), vectorized 8-wide for sizes ≥ 16 and SSE-width for the small
// sizes, and they stream the tile through registers: one 8-byte load and
// store per 8 coefficients, per-row pointer arithmetic, and a loop
// branch per unrolled group of rows. A count-only context gets the
// pass's counts in one go, charged to the transform stage.
func reportPass(tc *trace.Ctx, pc trace.PC, n int) {
	if tc == nil {
		return
	}
	log2n := 2
	for v := 4; v < n; v <<= 1 {
		log2n++
	}
	macs := max(n*n*log2n/8, 1)
	class := trace.OpAVX
	if n <= 4 {
		class = trace.OpSSE
	}
	mem, other, iters := n*n/8+1, n+log2n, (n+3)/4
	if t := tc.Tally(trace.StageTransform); t.Ok() {
		t.Add(class, macs)
		t.Add(trace.OpLoad, mem)
		t.Add(trace.OpStore, mem)
		t.Add(trace.OpOther, other)
		t.Add(trace.OpBranch, iters)
		return
	}
	tc.Op(class, macs)
	tc.Loads(pc, trace.ScratchBase+0x2000, mem, 8, 8)
	tc.Stores(pc, trace.ScratchBase+0x2800, mem, 8, 8)
	tc.Op(trace.OpOther, other)
	tc.Loop(pc, iters)
}

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
		block2D(t, 4, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 8 * 8]float64
		block2D(t, 8, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 16 * 16]float64
		block2D(t, 16, src, dst, s[:], inverse)
	},
	func(t *dctTable, src, dst []int32, inverse bool) {
		var s [2 * 32 * 32]float64
		block2D(t, 32, src, dst, s[:], inverse)
	},
}

// transform2D is block2D in portable Go: the only path off amd64 and
// on processors without AVX2, and the reference the kernel is held to.
// It computes round(m · X · mᵀ) with m the forward matrix; with inverse
// set m is the transposed matrix and it works on Xᵀ and transposes the
// result back, so the column side of X is multiplied first, which is
// the order Inverse sums in. Every output is one accumulator adding its
// n products in index order, exactly as the textbook double loop would
// (ref_test.go holds that loop); the layout around the sums is what
// makes it fast: src is converted to float64 once, and both passes read
// and write whole rows.
func transform2D(t *dctTable, n int, src, dst []int32, s []float64, inverse bool) {
	nn := n * n
	a, b := s[:nn], s[nn:2*nn]
	src, dst = src[:nn], dst[:nn]
	m := t.m
	if inverse {
		m = t.mt
		for r := 0; r < n; r++ {
			for c, v := range src[r*n : r*n+n] {
				a[c*n+r] = float64(v)
			}
		}
	} else {
		for i, v := range src {
			a[i] = float64(v)
		}
	}
	rowsTimes(a, m, b, n)
	rowsTimes(b, m, a, n)
	if inverse {
		for r := 0; r < n; r++ {
			for c, v := range a[r*n : r*n+n] {
				dst[c*n+r] = int32(math.Round(v))
			}
		}
	} else {
		for i, v := range a {
			dst[i] = int32(math.Round(v))
		}
	}
}

// rowsTimes sets out[k*n+r] to the dot product of row r of in and row k
// of m, summed left to right: out = m · inᵀ. Four rows of m share each
// load of in; their accumulators are independent, so no sum is
// reordered. Each product is an explicit conversion, which the language
// makes a rounding point: without it the compiler fuses multiply and add
// on arm64, ppc64le, s390x and riscv64, and a product rounded once, not
// twice, moves near-tie coefficients — the tables would depend on GOARCH.
func rowsTimes(in, m, out []float64, n int) {
	for r := 0; r < n; r++ {
		v := in[r*n : r*n+n]
		for k := 0; k < n; k += 4 {
			m0 := m[k*n : k*n+n][:len(v)]
			m1 := m[(k+1)*n : (k+1)*n+n][:len(v)]
			m2 := m[(k+2)*n : (k+2)*n+n][:len(v)]
			m3 := m[(k+3)*n : (k+3)*n+n][:len(v)]
			var s0, s1, s2, s3 float64
			for x, f := range v {
				s0 += float64(f * m0[x])
				s1 += float64(f * m1[x])
				s2 += float64(f * m2[x])
				s3 += float64(f * m3[x])
			}
			out[k*n+r] = s0
			out[(k+1)*n+r] = s1
			out[(k+2)*n+r] = s2
			out[(k+3)*n+r] = s3
		}
	}
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

package codec

import "vcprof/internal/codec/cpuid"

// residual is the arithmetic of Residual: on the AVX2 kernel where
// CPUID reported one at start-up, on the Go loop otherwise; both write
// the same samples (residual_amd64_test.go). Residual has cut all three
// slices to n samples.
func residual(cur, pred []byte, dst []int32) {
	if !cpuid.AVX2 || len(dst) == 0 {
		residualGeneric(cur, pred, dst)
		return
	}
	residualKernel(cur, pred, dst)
}

// residualKernel is the bounds proof and the call; len(dst) > 0. The
// slice expressions are the Go loop's own: they panic unless both
// sources have room for len(dst) samples, and the kernel reads no more.
func residualKernel(cur, pred []byte, dst []int32) {
	n := len(dst)
	cur, pred = cur[:n], pred[:n]
	residualAVX2(&cur[0], &pred[0], &dst[0], n)
}

// tileSSE is the arithmetic of TileSSE, selected as residual is. A
// block with no samples, or rows that run backwards, stays on the Go
// loop.
func tileSSE(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	if !cpuid.AVX2 || w <= 0 || h <= 0 || astride < 0 || bstride < 0 {
		return tileSSEGeneric(a, astride, b, bstride, w, h)
	}
	return tileSSEKernel(a, astride, b, bstride, w, h)
}

// tileSSEKernel is the bounds proof and the call; w, h > 0, strides ≥ 0.
// Indexing the last sample of each block's last row bounds every row.
func tileSSEKernel(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	_, _ = a[(h-1)*astride+w-1], b[(h-1)*bstride+w-1]
	return tileSSEAVX2(&a[0], astride, &b[0], bstride, w, h)
}

//go:noescape
func residualAVX2(cur *byte, pred *byte, dst *int32, n int)

//go:noescape
func tileSSEAVX2(a *int32, astride int, b *int32, bstride int, w, h int) int64

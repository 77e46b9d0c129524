package kernel

// Residual writes dst[i] = cur[i] − pred[i] for every sample of dst;
// cur and pred must hold len(dst) samples.
func Residual(cur, pred []byte, dst []int32) {
	if !AVX2 || len(dst) == 0 {
		ResidualGeneric(cur, pred, dst)
		return
	}
	ResidualKernel(cur, pred, dst)
}

// ResidualGeneric is Residual's Go loop.
func ResidualGeneric(cur, pred []byte, dst []int32) {
	cur, pred = cur[:len(dst)], pred[:len(dst)]
	for i := range dst {
		dst[i] = int32(cur[i]) - int32(pred[i])
	}
}

// ResidualKernel is the bounds proof and the call; len(dst) > 0. The
// slice expressions are the Go loop's own: they panic unless both
// sources have room for len(dst) samples, and the kernel reads no more.
func ResidualKernel(cur, pred []byte, dst []int32) {
	n := len(dst)
	cur, pred = cur[:n], pred[:n]
	residualAVX2(&cur[0], &pred[0], &dst[0], n)
}

// TileSSE returns the sum of squared differences of two w×h int32
// blocks whose rows start astride and bstride samples apart: each
// difference is taken in int32, wrapping as a[i]−b[i] does, then
// squared and summed in int64.
func TileSSE(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	if !AVX2 || w <= 0 || h <= 0 || astride < 0 || bstride < 0 {
		return TileSSEGeneric(a, astride, b, bstride, w, h)
	}
	return TileSSEKernel(a, astride, b, bstride, w, h)
}

// TileSSEGeneric is TileSSE's Go loop.
func TileSSEGeneric(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	var sse int64
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			d := int64(a[j*astride+i] - b[j*bstride+i])
			sse += d * d
		}
	}
	return sse
}

// TileSSEKernel is the bounds proof and the call; w, h > 0, strides ≥ 0.
// Indexing the last sample of each block's last row bounds every row.
func TileSSEKernel(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	_, _ = a[(h-1)*astride+w-1], b[(h-1)*bstride+w-1]
	return tileSSEAVX2(&a[0], astride, &b[0], bstride, w, h)
}

//go:build !amd64

package transform

// block2D computes dst = round(M·X·Mᵀ) of the n×n block X in src, or
// round(Mᵀ·X·M) with inverse set, over the scratch s of 2n² values. Off
// amd64 there is no kernel: the Go loops are the only path.
func block2D(t *dctTable, n int, src, dst []int32, s []float64, inverse bool) {
	transform2D(t, n, src, dst, s, inverse)
}

//go:build !amd64

package codec

// residual is the arithmetic of Residual. Off amd64 there is no kernel:
// the Go loop is the only path.
func residual(cur, pred []byte, dst []int32) { residualGeneric(cur, pred, dst) }

// tileSSE is the arithmetic of TileSSE; the Go loop is the only path.
func tileSSE(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	return tileSSEGeneric(a, astride, b, bstride, w, h)
}

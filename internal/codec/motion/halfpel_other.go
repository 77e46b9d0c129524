//go:build !amd64

package motion

import "vcprof/internal/codec"

// interpHalf is the arithmetic of InterpHalfPel's half phases. Off
// amd64 there is no kernel: the Go loops are the only path.
func interpHalf(ref codec.Surface, x, y int, sub SubPel, w, h int, dst []byte) {
	interpGeneric(ref, x, y, sub, w, h, dst)
}

//go:build !amd64

package motion

import "vcprof/internal/codec"

// blockSAD is the arithmetic of SAD. Off amd64 there is no kernel: the
// Go loop is the only path.
func blockSAD(cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) int32 {
	return sadGeneric(cur, cx, cy, ref, rx, ry, w, h)
}

// bufferSAD is the arithmetic of BufferSAD; the Go loop is the only
// path.
func bufferSAD(a, b []byte, n int) int32 { return bufferSADGeneric(a, b, n) }

package motion

import (
	"vcprof/internal/codec"
	"vcprof/internal/codec/cpuid"
)

// blockSAD is the arithmetic of SAD: on the AVX2 kernel where CPUID
// reported one at start-up, on the Go loop otherwise; both return the
// same sum (sad_amd64_test.go), so nothing but the hardware selects.
// The kernel runs only behind the checks here: a block with no pixels,
// or a plane whose rows run backwards, stays on the Go loop, and the
// index expressions panic, as the Go loop's would, unless the block's
// first byte and the last byte of its last row are inside the plane's
// length — which, rows being stride ≥ 0 apart, bounds every row the
// assembly reads.
func blockSAD(cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) int32 {
	if !cpuid.AVX2 || w <= 0 || h <= 0 || cur.Stride < 0 || ref.Stride < 0 {
		return sadGeneric(cur, cx, cy, ref, rx, ry, w, h)
	}
	return sadKernel(cur, cx, cy, ref, rx, ry, w, h)
}

// sadKernel is the bounds proof and the call; w, h > 0, strides ≥ 0.
func sadKernel(cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) int32 {
	c := cur.Pix[cy*cur.Stride+cx:]
	r := ref.Pix[ry*ref.Stride+rx:]
	_, _ = c[(h-1)*cur.Stride+w-1], r[(h-1)*ref.Stride+w-1]
	return sadAVX2(&c[0], cur.Stride, &r[0], ref.Stride, w, h)
}

// bufferSAD is the arithmetic of BufferSAD, selected as blockSAD's is.
// The n bytes of each buffer are one row for the SAD kernel.
func bufferSAD(a, b []byte, n int) int32 {
	if !cpuid.AVX2 || n <= 0 {
		return bufferSADGeneric(a, b, n)
	}
	return bufferSADKernel(a, b, n)
}

// bufferSADKernel is the bounds proof and the call; n > 0. Indexing
// each buffer's last byte panics, as the Go loop would, on one too
// short.
func bufferSADKernel(a, b []byte, n int) int32 {
	_, _ = a[n-1], b[n-1]
	return sadAVX2(&a[0], n, &b[0], n, n, 1)
}

//go:noescape
func sadAVX2(cur *byte, cstride int, ref *byte, rstride int, w, h int) int32

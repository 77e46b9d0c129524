package motion

import (
	"vcprof/internal/codec"
	"vcprof/internal/codec/cpuid"
)

// interpHalf is the arithmetic of InterpHalfPel's half phases: on the
// AVX2 kernels where CPUID reported them at start-up, on the Go loops
// otherwise; both write the same bytes (halfpel_amd64_test.go). A block
// with no pixels, or a plane whose rows run backwards, stays on the Go
// loops.
func interpHalf(ref codec.Surface, x, y int, sub SubPel, w, h int, dst []byte) {
	if !cpuid.AVX2 || w <= 0 || h <= 0 || ref.Stride < 0 {
		interpGeneric(ref, x, y, sub, w, h, dst)
		return
	}
	interpKernel(ref, x, y, sub, w, h, dst)
}

// interpKernel is the bounds proof and the call; w, h > 0, stride ≥ 0,
// and sub a half phase. The index expressions panic, as the Go loops'
// would, unless the last output byte is inside dst and the last byte
// the phase reads — one right of, one row below or diagonally past the
// block's last pixel — is inside the plane; rows being stride ≥ 0
// apart, that bounds every row the assembly reads.
func interpKernel(ref codec.Surface, x, y int, sub SubPel, w, h int, dst []byte) {
	s := ref.Stride
	src := ref.Pix[y*s+x:]
	_ = dst[w*h-1]
	switch {
	case sub.Y == 0:
		_ = src[(h-1)*s+w]
		avg2AVX2(&dst[0], &src[0], &src[1], s, w, h)
	case sub.X == 0:
		_ = src[h*s+w-1]
		avg2AVX2(&dst[0], &src[0], &src[s], s, w, h)
	default:
		_ = src[h*s+w]
		avg4AVX2(&dst[0], &src[0], s, w, h)
	}
}

//go:noescape
func avg2AVX2(dst *byte, a *byte, b *byte, stride int, w, h int)

//go:noescape
func avg4AVX2(dst *byte, src *byte, stride int, w, h int)

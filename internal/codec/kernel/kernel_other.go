//go:build !amd64

package kernel

// AVX2 is false off amd64: every selector takes its Go loop, and the
// stubs below, which stand in for the assembly, are never called.
const AVX2 = false

const noAVX2 = "kernel: AVX2 routine called off amd64"

func residualAVX2(cur *byte, pred *byte, dst *int32, n int) { panic(noAVX2) }

func tileSSEAVX2(a *int32, astride int, b *int32, bstride int, w, h int) int64 { panic(noAVX2) }

func sadAVX2(cur *byte, cstride int, ref *byte, rstride int, w, h int) int32 { panic(noAVX2) }

func avg2AVX2(dst *byte, a *byte, b *byte, stride int, w, h int) { panic(noAVX2) }

func avg4AVX2(dst *byte, src *byte, stride int, w, h int) { panic(noAVX2) }

func mulRows(a, bm, c *float64, n int) { panic(noAVX2) }

func widen(src *int32, a *float64, nn int) { panic(noAVX2) }

func roundNarrow(a *float64, dst *int32, nn int) { panic(noAVX2) }

func satdAVX2(res *int32, stride, pairs, rows int) int32 { panic(noAVX2) }

func quantizeAVX2(coefs *int32, levels *int32, n int, inv, round int64) int { panic(noAVX2) }

func dequantizeAVX2(levels *int32, coefs *int32, n int, stepFx int64) { panic(noAVX2) }

func bitsEstimateAVX2(levels *int32, n int) int { panic(noAVX2) }

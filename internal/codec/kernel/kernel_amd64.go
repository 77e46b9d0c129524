package kernel

// AVX2 reports whether the processor implements AVX2 and the operating
// system saves the YMM registers across context switches. It is read
// once, at package initialisation; a selector branches on it rather
// than calling through a function variable, which would move the
// transforms' stack scratch to the heap.
var AVX2 = probe()

func probe() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	// Leaf 1 ECX: OSXSAVE (bit 27, XGETBV is usable) and AVX (bit 28).
	if _, _, c, _ := cpuid(1, 0); c>>27&3 != 3 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xgetbv()>>1&3 != 3 {
		return false
	}
	_, b, _, _ := cpuid(7, 0) // leaf 7 EBX bit 5: AVX2
	return b>>5&1 == 1
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() uint32

// The assembly routines. Each .s file states its routine's contract;
// each is called only from its wrapper, after the bounds proof.

//go:noescape
func residualAVX2(cur *byte, pred *byte, dst *int32, n int)

//go:noescape
func tileSSEAVX2(a *int32, astride int, b *int32, bstride int, w, h int) int64

//go:noescape
func sadAVX2(cur *byte, cstride int, ref *byte, rstride int, w, h int) int32

//go:noescape
func sadx4AVX2(cur *byte, cstride int, r0, r1, r2, r3 *byte, rstride, w, h int, sums *[4]int32)

//go:noescape
func avg2AVX2(dst *byte, a *byte, b *byte, stride int, w, h int)

//go:noescape
func avg4AVX2(dst *byte, src *byte, stride int, w, h int)

//go:noescape
func mulRows(a, bm, c *float64, n int)

//go:noescape
func widen(src *int32, a *float64, nn int)

//go:noescape
func roundNarrow(a *float64, dst *int32, nn int)

//go:noescape
func satdAVX2(res *int32, stride, pairs, rows int) int32

//go:noescape
func quantizeAVX2(coefs *int32, levels *int32, n int, inv, round int64) int

//go:noescape
func dequantizeAVX2(levels *int32, coefs *int32, n int, stepFx int64)

//go:noescape
func bitsEstimateAVX2(levels *int32, n int) int

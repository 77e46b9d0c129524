// Package cpuid answers the one question the codec's host kernels ask
// of the machine: can it run AVX2 code. It is read once, at package
// initialisation, and selects between implementations that produce the
// same bytes, so nothing a run prints depends on the answer.
package cpuid

// AVX2 reports whether the processor implements AVX2 and the operating
// system saves the YMM registers across context switches.
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

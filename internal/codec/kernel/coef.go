package kernel

import "math/bits"

// The quantizer's domain on the assembly side: with inv ≤ 1.25·2¹⁶ and
// round < 2³⁰, |c| + round stays below 2³² and the level below
// 1.25·(2³¹ + 2³⁰) < 2³², so a 32×32-bit unsigned product holds it.
const (
	quantMaxInv   = 5 << 14
	quantMaxRound = 1<<30 - 1
)

// Quantize writes the dead-zone levels sign(c)·((|c| + round)·inv >> 16)
// of coefs into levels, each truncated to int32, and returns the number
// that are nonzero. levels must hold len(coefs) values and may alias
// coefs. The assembly takes 0 ≤ inv ≤ 5·2¹⁴ and 0 ≤ round < 2³⁰, every
// value quant's table holds; other steps, and an empty block, go
// through the Go loop.
func Quantize(coefs []int32, inv, round int64, levels []int32) int {
	if !AVX2 || len(coefs) == 0 || inv < 0 || inv > quantMaxInv || round < 0 || round > quantMaxRound {
		return QuantizeGeneric(coefs, inv, round, levels)
	}
	return QuantizeKernel(coefs, inv, round, levels)
}

// QuantizeGeneric is Quantize's Go loop: the sign restored with
// (x^m)−m and the nonzero count kept without a branch.
func QuantizeGeneric(coefs []int32, inv, round int64, levels []int32) int {
	levels = levels[:len(coefs)]
	nz := 0
	for i, c := range coefs {
		m := int64(c >> 31) // -1 for a negative coefficient, else 0
		l := (((int64(c) ^ m) - m) + round) * inv >> 16
		nz += int(uint64(-l) >> 63) // l >= 0: 1 unless it is zero
		levels[i] = int32((l ^ m) - m)
	}
	return nz
}

// QuantizeKernel is the bounds proof and the call; coefs is not empty
// and inv and round lie in the assembly's domain. The slice expression
// is the Go loop's own.
func QuantizeKernel(coefs []int32, inv, round int64, levels []int32) int {
	levels = levels[:len(coefs)]
	return quantizeAVX2(&coefs[0], &levels[0], len(coefs), inv, round)
}

// Dequantize writes int32(l·stepFx >> 8) of every level l into coefs,
// which must hold len(levels) values and may alias levels. The assembly
// takes a stepFx that fits in an int32; a larger one, and an empty
// block, go through the Go loop.
func Dequantize(levels []int32, stepFx int64, coefs []int32) {
	if !AVX2 || len(levels) == 0 || stepFx != int64(int32(stepFx)) {
		DequantizeGeneric(levels, stepFx, coefs)
		return
	}
	DequantizeKernel(levels, stepFx, coefs)
}

// DequantizeGeneric is Dequantize's Go loop.
func DequantizeGeneric(levels []int32, stepFx int64, coefs []int32) {
	coefs = coefs[:len(levels)]
	for i, l := range levels {
		coefs[i] = int32(int64(l) * stepFx >> 8)
	}
}

// DequantizeKernel is the bounds proof and the call; levels is not
// empty and stepFx fits in an int32.
func DequantizeKernel(levels []int32, stepFx int64, coefs []int32) {
	coefs = coefs[:len(levels)]
	dequantizeAVX2(&levels[0], &coefs[0], len(levels), stepFx)
}

// BitsEstimate returns rdo's rate estimate of a block of levels: each
// nonzero level costs 3 + 2·Len32(|l|) bits plus a quarter of the zeros
// run before it, rounded down, and a coded block 2 bits more; a block
// with no nonzero level costs 1, its coded-block flag.
func BitsEstimate(levels []int32) int {
	if !AVX2 || len(levels) == 0 {
		return BitsEstimateGeneric(levels)
	}
	return BitsEstimateKernel(levels)
}

// BitsEstimateGeneric is BitsEstimate's Go loop. Levels are mostly
// zero, so the l == 0 branch predicts well; a branch-free form of this
// loop was measured slower.
func BitsEstimateGeneric(levels []int32) int {
	total := 0
	zeroRun := 0
	for _, l := range levels {
		if l == 0 {
			zeroRun++
			continue
		}
		m := uint32(l)
		if l < 0 {
			m = uint32(-l)
		}
		total += 3 + 2*bits.Len32(m) + zeroRun/4
		zeroRun = 0
	}
	if total == 0 {
		return 1 // coded-block flag
	}
	return total + 2
}

// BitsEstimateKernel is the call; levels is not empty, and the kernel
// reads exactly its len(levels) values.
func BitsEstimateKernel(levels []int32) int {
	return bitsEstimateAVX2(&levels[0], len(levels))
}

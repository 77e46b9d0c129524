package rdo

import "math/bits"

// refBitsEstimate is BitsEstimate as it shipped before the kernel
// package held it, moved here verbatim (identifier prefixed): the
// oracle the rate estimate's walls hold both of its halves to.
func refBitsEstimate(levels []int32) int {
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

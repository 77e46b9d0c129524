package kernel

// Widen is widen on slices: dst = float64(src), len(src) a multiple of 4.
func Widen(src []int32, dst []float64) {
	dst = dst[:len(src)]
	widen(&src[0], &dst[0], len(src))
}

// RoundNarrow is roundNarrow on slices: dst = int32(math.Round(src)),
// len(src) a multiple of 4.
func RoundNarrow(src []float64, dst []int32) {
	dst = dst[:len(src)]
	roundNarrow(&src[0], &dst[0], len(src))
}

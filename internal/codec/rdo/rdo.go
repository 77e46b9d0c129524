// Package rdo provides rate-distortion optimization helpers: the
// lambda schedule tied to the quantizer, fast bit-cost estimation for
// mode decision, and RD cost combination.
package rdo

import (
	"fmt"
	"math"

	"vcprof/internal/codec/kernel"
)

// Lambda returns the RD multiplier for a quantizer step size, using the
// conventional λ ∝ (step)² schedule of hybrid encoders.
func Lambda(step float64) (float64, error) {
	if step <= 0 {
		return 0, fmt.Errorf("rdo: invalid quantizer step %v", step)
	}
	return 0.57 * step * step, nil
}

// BitsEstimate approximates the entropy-coded size in bits of a block of
// quantized levels without running the range coder: each nonzero level
// costs a sign bit plus ~2·log2(|level|+1) bits of magnitude and context
// overhead; runs of zeros amortize to a fraction of a bit each. This is
// the fast rate model encoders use inside mode decision.
func BitsEstimate(levels []int32) int { return kernel.BitsEstimate(levels) }

// Cost combines distortion (SSE or SATD units) with an estimated bit
// count under multiplier lambda.
func Cost(dist int64, bitCount int, lambda float64) int64 {
	return dist + int64(math.Round(lambda*float64(bitCount)))
}

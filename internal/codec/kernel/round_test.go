package kernel_test

import (
	"math"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// TestRoundNarrowMatchesMathRound is the proof step 3 of the kernel
// rests on: the vector round-half-away-and-convert equals
// int32(math.Round(v)) on the values where a shortcut would not — the
// halves, the neighbours of the halves, signed zero, the int32 edges,
// magnitudes past 2⁵² where every float64 is an integer — and on a
// seeded sweep of every binade a coefficient can fall in.
func TestRoundNarrowMatchesMathRound(t *testing.T) {
	kerneltest.NeedKernel(t)
	vals := []float64{0, 0.25, 0.5, 1, 1.5, 2.5, 3.5, 1e-320, 5e-324, 0.75, 1 << 20, 1<<20 + 0.5,
		math.MaxInt32, math.MaxInt32 - 0.5, math.MaxInt32 + 0.5, -math.MinInt32, -math.MinInt32 + 0.5, 1 << 40, 1<<40 + 0.5, 1 << 62}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for k := -3.0; k <= 3; k++ {
		vals = append(vals, 1<<52+k, 1<<51+k/2, 1<<53+2*k)
	}
	s := uint64(0x9E3779B97F4A7C15)
	for e := -4; e < 56; e++ {
		for i := 0; i < 64; i++ {
			kerneltest.Next(&s)
			vals = append(vals, math.Ldexp(1+float64(s>>11)/(1<<53), e))
			// A half-integer of this binade, and its two neighbours.
			h := math.Trunc(math.Ldexp(1+float64(s>>40)/(1<<24), e)) + 0.5
			vals = append(vals, h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)))
		}
	}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, -v)
	}
	for len(vals)%4 != 0 {
		vals = append(vals, 0)
	}
	got := make([]int32, len(vals))
	kernel.RoundNarrow(vals, got)
	for i, v := range vals {
		if want := int32(math.Round(v)); got[i] != want {
			t.Fatalf("roundNarrow(%v [%x]) = %d, int32(math.Round) = %d", v, math.Float64bits(v), got[i], want)
		}
	}

	ints := []int32{0, 1, -1, 255, -255, math.MaxInt32, math.MinInt32, 1 << 24, -(1<<24 + 1), 1<<30 + 1, 7, -8}
	wide := make([]float64, len(ints))
	kernel.Widen(ints, wide)
	for i, v := range ints {
		if wide[i] != float64(v) {
			t.Fatalf("widen(%d) = %v", v, wide[i])
		}
	}
}

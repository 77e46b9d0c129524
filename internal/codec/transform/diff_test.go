package transform

import (
	"fmt"
	"testing"

	"vcprof/internal/trace"
)

// diffBlocks returns the named input blocks of the differential test
// for one size.
func diffBlocks(n int) map[string][]int32 {
	s := uint64(n) * 0x9E3779B97F4A7C15
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	fill := func(f func(i int) int32) []int32 {
		b := make([]int32, n*n)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	return map[string][]int32{
		"dense": fill(func(int) int32 { return int32(next()%511) - 255 }),
		"sparse75": fill(func(int) int32 {
			if next()%4 != 0 {
				return 0
			}
			return int32(next()%2001) - 1000
		}),
		"zero": fill(func(int) int32 { return 0 }),
		"dc": fill(func(i int) int32 {
			if i == 0 {
				return 1234
			}
			return 0
		}),
		"amp2^20": fill(func(int) int32 {
			if next()%2 == 0 {
				return 1 << 20
			}
			return -(1 << 20)
		}),
		"ramp2^20": fill(func(i int) int32 { return int32(next()%(2<<20+1)) - 1<<20 }),
	}
}

// TestTransformsMatchReference is the differential wall for the
// transforms: every rounded coefficient of Forward and Inverse, and
// every count they report, equals the reference's, with separate and
// with aliased buffers.
func TestTransformsMatchReference(t *testing.T) {
	type xf func(*trace.Ctx, []int32, int, []int32) error
	for _, dir := range []struct {
		name      string
		fast, ref xf
	}{{"Forward", Forward, refForward}, {"Inverse", Inverse, refInverse}} {
		for _, n := range []int{4, 8, 16, 32} {
			for name, block := range diffBlocks(n) {
				for _, aliased := range []bool{false, true} {
					id := fmt.Sprintf("%s/%d/%s/aliased=%v", dir.name, n, name, aliased)
					run := func(f xf) ([]int32, *trace.Ctx) {
						src := append([]int32(nil), block...)
						dst := make([]int32, n*n)
						if aliased {
							dst = src
						}
						tc := trace.New()
						if err := f(tc, src, n, dst); err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						return dst, tc
					}
					got, gotTC := run(dir.fast)
					want, wantTC := run(dir.ref)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: coefficient %d = %d, reference %d", id, i, got[i], want[i])
						}
					}
					if gotTC.Mix != wantTC.Mix || gotTC.Total() != wantTC.Total() {
						t.Fatalf("%s: reported mix %v, reference %v", id, gotTC.Mix, wantTC.Mix)
					}
				}
			}
		}
	}
}

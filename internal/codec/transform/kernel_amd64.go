package transform

import "vcprof/internal/codec/cpuid"

// block2D computes dst = round(M·X·Mᵀ) of the n×n block X in src, or
// round(Mᵀ·X·M) with inverse set, over the scratch s of 2n² values: on
// the AVX2 kernel where CPUID reported one at start-up, on the Go loops
// otherwise. Both produce the same bits (kernel_amd64_test.go), so
// nothing but the hardware selects. It is a branch, not a function
// variable: an indirect call would move the callers' scratch to the heap.
func block2D(t *dctTable, n int, src, dst []int32, s []float64, inverse bool) {
	if cpuid.AVX2 {
		kernel2D(t, n, src, dst, s, inverse)
	} else {
		transform2D(t, n, src, dst, s, inverse)
	}
}

// kernel2D is transform2D on the routines of kernel_amd64.s. Both
// passes are one row-major product: Forward is (X·Mᵀ) then M·(…),
// Inverse (Mᵀ·X) then (…)·M, which hands every output the products
// rowsTimes gives it, in the same order, with no transposed copy on
// either side. n has passed validSize. The reslicing up front is the
// assembly's bounds check: each routine touches exactly the n² values
// of the slices it is handed.
func kernel2D(t *dctTable, n int, src, dst []int32, s []float64, inverse bool) {
	nn := n * n
	a, b := s[:nn], s[nn:2*nn]
	src, dst = src[:nn], dst[:nn]
	m, mt := t.m[:nn], t.mt[:nn]
	widen(&src[0], &a[0], nn)
	if inverse {
		mulRows(&mt[0], &a[0], &b[0], n)
		mulRows(&b[0], &m[0], &a[0], n)
	} else {
		mulRows(&a[0], &mt[0], &b[0], n)
		mulRows(&m[0], &b[0], &a[0], n)
	}
	roundNarrow(&a[0], &dst[0], nn)
}

//go:noescape
func mulRows(a, bm, c *float64, n int)

//go:noescape
func widen(src *int32, a *float64, nn int)

//go:noescape
func roundNarrow(a *float64, dst *int32, nn int)

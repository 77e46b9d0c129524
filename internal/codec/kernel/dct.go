package kernel

import "math"

// Transform2D computes dst = round(m · X · mᵀ) of the n×n block X in
// src, or round(mt · X · m) with inverse set, over the scratch s of 2n²
// values; m is an n×n row-major matrix, mt its transpose, n one of 4,
// 8, 16 and 32, and src and dst may alias. It neither keeps nor leaks
// s, so a caller's stack scratch stays on the stack.
func Transform2D(m, mt []float64, n int, src, dst []int32, s []float64, inverse bool) {
	if !AVX2 {
		Transform2DGeneric(m, mt, n, src, dst, s, inverse)
		return
	}
	Transform2DKernel(m, mt, n, src, dst, s, inverse)
}

// Transform2DGeneric is Transform2D's Go loops. With inverse set it
// multiplies by mt and works on Xᵀ, transposing the result back, so the
// column side of X is multiplied first, which is the order an inverse
// sums in.
// Every output is one accumulator adding its n products in index
// order, exactly as the textbook double loop would; the layout around
// the sums is what makes it fast: src is converted to float64 once, and
// both passes read and write whole rows.
func Transform2DGeneric(m, mt []float64, n int, src, dst []int32, s []float64, inverse bool) {
	nn := n * n
	a, b := s[:nn], s[nn:2*nn]
	src, dst = src[:nn], dst[:nn]
	if inverse {
		m = mt
		for r := 0; r < n; r++ {
			for c, v := range src[r*n : r*n+n] {
				a[c*n+r] = float64(v)
			}
		}
	} else {
		for i, v := range src {
			a[i] = float64(v)
		}
	}
	RowsTimes(a, m, b, n)
	RowsTimes(b, m, a, n)
	if inverse {
		for r := 0; r < n; r++ {
			for c, v := range a[r*n : r*n+n] {
				dst[c*n+r] = int32(math.Round(v))
			}
		}
	} else {
		for i, v := range a {
			dst[i] = int32(math.Round(v))
		}
	}
}

// RowsTimes sets out[k*n+r] to the dot product of row r of in and row k
// of m, summed left to right: out = m · inᵀ. Four rows of m share each
// load of in; their accumulators are independent, so no sum is
// reordered. Each product is an explicit conversion, which the language
// makes a rounding point: without it the compiler fuses multiply and add
// on arm64, ppc64le, s390x and riscv64, and a product rounded once, not
// twice, moves near-tie coefficients — the tables would depend on GOARCH.
func RowsTimes(in, m, out []float64, n int) {
	for r := 0; r < n; r++ {
		v := in[r*n : r*n+n]
		for k := 0; k < n; k += 4 {
			m0 := m[k*n : k*n+n][:len(v)]
			m1 := m[(k+1)*n : (k+1)*n+n][:len(v)]
			m2 := m[(k+2)*n : (k+2)*n+n][:len(v)]
			m3 := m[(k+3)*n : (k+3)*n+n][:len(v)]
			var s0, s1, s2, s3 float64
			for x, f := range v {
				s0 += float64(f * m0[x])
				s1 += float64(f * m1[x])
				s2 += float64(f * m2[x])
				s3 += float64(f * m3[x])
			}
			out[k*n+r] = s0
			out[(k+1)*n+r] = s1
			out[(k+2)*n+r] = s2
			out[(k+3)*n+r] = s3
		}
	}
}

// Transform2DKernel is Transform2DGeneric on the routines of
// dct_amd64.s. Both passes are one row-major product: forward is (X·mt)
// then m·(…), inverse
// (mt·X) then (…)·m, which hands every output the products RowsTimes
// gives it, in the same order, with no transposed copy on either side.
// The reslicing up front is the assembly's bounds check: each routine
// touches exactly the n² values of the slices it is handed.
func Transform2DKernel(m, mt []float64, n int, src, dst []int32, s []float64, inverse bool) {
	nn := n * n
	a, b := s[:nn], s[nn:2*nn]
	src, dst = src[:nn], dst[:nn]
	m, mt = m[:nn], mt[:nn]
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

// MulRows is dct_amd64.s's mulRows on slices: c = a·b of n×n row-major
// matrices. It lets the walls check each pass of Transform2DKernel on
// its own; like every …Kernel, it runs only where AVX2 is true.
func MulRows(a, b, c []float64, n int) {
	nn := n * n
	a, b, c = a[:nn], b[:nn], c[:nn]
	mulRows(&a[0], &b[0], &c[0], n)
}

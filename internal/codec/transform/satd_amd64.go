package transform

import "vcprof/internal/codec/cpuid"

// satdTiles is the arithmetic of SATD: on the AVX2 kernel where CPUID
// reported one at start-up, on the Go loop otherwise; both return the
// same sum (satd_amd64_test.go). SATD has checked that w and h are
// positive multiples of 4; a block one tile wide stays on the Go loop.
func satdTiles(res []int32, w, h int) int32 {
	if !cpuid.AVX2 || w < 8 {
		return satdGeneric(res, w, h)
	}
	return satdKernel(res, w, h)
}

// satdKernel is the bounds proof and the call; w ≥ 8 and h ≥ 4,
// multiples of 4. The two slice expressions are the ones the Go loop's
// last tile makes — its start within len(res), its last row within
// cap(res) — so the kernel panics exactly where the Go loop would, and
// reads no more than w·h samples. The kernel takes tiles in pairs; a
// last column of single tiles (w mod 8 = 4) goes through satd4x4.
func satdKernel(res []int32, w, h int) int32 {
	_ = res[w*h-3*w-4:]
	res = res[:w*h]
	total := satdAVX2(&res[0], w, w/8, h/4)
	if w%8 != 0 {
		for y := 0; y < h; y += 4 {
			total += satd4x4(res[y*w+w-4:], w)
		}
	}
	return total
}

//go:noescape
func satdAVX2(res *int32, stride, pairs, rows int) int32

package kernel

// SATD returns the sum of the halved 4×4 Hadamard SATDs of the tiles of
// the w×h residual res (row-major, stride w); w and h are positive
// multiples of 4.
func SATD(res []int32, w, h int) int32 {
	if !AVX2 || w < 8 {
		return SATDGeneric(res, w, h)
	}
	return SATDKernel(res, w, h)
}

// SATDGeneric is SATD's Go loop.
func SATDGeneric(res []int32, w, h int) int32 {
	var total int32
	for y := 0; y < h; y += 4 {
		for x := 0; x < w; x += 4 {
			total += satd4x4(res[y*w+x:], w)
		}
	}
	return total
}

// SATDKernel is the bounds proof and the call; w ≥ 8 and h ≥ 4,
// multiples of 4. The two slice expressions are the ones the Go loop's
// last tile makes — its start within len(res), its last row within
// cap(res) — so the kernel panics exactly where the Go loop would, and
// reads no more than w·h samples. The kernel takes tiles in pairs; a
// last column of single tiles (w mod 8 = 4) goes through satd4x4.
func SATDKernel(res []int32, w, h int) int32 {
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

// abs32 is |v| without a branch; like negation, it wraps MinInt32 to
// itself.
func abs32(v int32) int32 {
	m := v >> 31
	return (v ^ m) - m
}

// satd4x4 returns the sum of absolute Hadamard-transformed differences
// of the 4×4 residual tile whose rows start at res[0], res[w], res[2w]
// and res[3w], halved to approximate SAD scale, the convention x264
// uses. The 4-point Walsh–Hadamard butterflies run over the rows into
// locals, then down the columns; integer adds wrap, so the order of
// the sum does not change it.
func satd4x4(res []int32, w int) int32 {
	r0, r1, r2, r3 := res[0:4], res[w:w+4], res[2*w:2*w+4], res[3*w:3*w+4]
	// Row butterflies: (a, b, c, d) → (a+b+c+d, a−c+b−d, a+c−b−d, a−c−b+d).
	s0, s1, s2, s3 := r0[0]+r0[2], r0[0]-r0[2], r0[1]+r0[3], r0[1]-r0[3]
	a0, a1, a2, a3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r1[0]+r1[2], r1[0]-r1[2], r1[1]+r1[3], r1[1]-r1[3]
	b0, b1, b2, b3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r2[0]+r2[2], r2[0]-r2[2], r2[1]+r2[3], r2[1]-r2[3]
	c0, c1, c2, c3 := s0+s2, s1+s3, s0-s2, s1-s3
	s0, s1, s2, s3 = r3[0]+r3[2], r3[0]-r3[2], r3[1]+r3[3], r3[1]-r3[3]
	d0, d1, d2, d3 := s0+s2, s1+s3, s0-s2, s1-s3
	// Column butterflies, summed as they come.
	var sum int32
	s0, s1, s2, s3 = a0+c0, a0-c0, b0+d0, b0-d0
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a1+c1, a1-c1, b1+d1, b1-d1
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a2+c2, a2-c2, b2+d2, b2-d2
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	s0, s1, s2, s3 = a3+c3, a3-c3, b3+d3, b3-d3
	sum += abs32(s0+s2) + abs32(s1+s3) + abs32(s0-s2) + abs32(s1-s3)
	return sum / 2
}

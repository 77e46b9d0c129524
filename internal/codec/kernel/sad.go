package kernel

// SAD returns the sum of absolute differences between the w×h block at
// (cx, cy) of the plane cur, whose rows are cstride bytes apart, and
// the block at (rx, ry) of ref, rows rstride apart.
func SAD(cur []byte, cstride, cx, cy int, ref []byte, rstride, rx, ry, w, h int) int32 {
	if !AVX2 || w <= 0 || h <= 0 || cstride < 0 || rstride < 0 {
		return SADGeneric(cur, cstride, cx, cy, ref, rstride, rx, ry, w, h)
	}
	return SADKernel(cur, cstride, cx, cy, ref, rstride, rx, ry, w, h)
}

// SADGeneric is SAD's Go loop. It is kept out of line: inlined, it
// more than doubles SAD, whose AVX2 path the motion search calls per
// candidate, with a loop that path never runs.
//
//go:noinline
func SADGeneric(cur []byte, cstride, cx, cy int, ref []byte, rstride, rx, ry, w, h int) int32 {
	var sum int32
	for j := 0; j < h; j++ {
		crow := cur[(cy+j)*cstride+cx:]
		rrow := ref[(ry+j)*rstride+rx:]
		for i := 0; i < w; i++ {
			d := int32(crow[i]) - int32(rrow[i])
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// SADKernel is the bounds proof and the call; w, h > 0, strides ≥ 0.
// The index expressions panic, as the Go loop's would, unless each
// block's first byte and the last byte of its last row are inside the
// plane's length, which, rows being stride ≥ 0 apart, bounds every row
// the assembly reads. (A slice expression is checked against capacity,
// so it would let a plane re-sliced short through.)
func SADKernel(cur []byte, cstride, cx, cy int, ref []byte, rstride, rx, ry, w, h int) int32 {
	c := cur[cy*cstride+cx:]
	r := ref[ry*rstride+rx:]
	_, _ = c[(h-1)*cstride+w-1], r[(h-1)*rstride+w-1]
	return sadAVX2(&c[0], cstride, &r[0], rstride, w, h)
}

// SADx4 writes to sums[k], for each k < n, the sum of absolute
// differences between the w×h block at (cx, cy) of cur and the block
// at (xs[k], ys[k]) of ref, and zero past n: up to four reference
// positions for one current block, whose rows the assembly reads once
// for all of them (x264's sad_x4). The assembly takes 1 ≤ n ≤ 4.
func SADx4(cur []byte, cstride, cx, cy int, ref []byte, rstride int, xs, ys *[4]int, n, w, h int, sums *[4]int32) {
	if !AVX2 || n < 1 || n > 4 || w <= 0 || h <= 0 || cstride < 0 || rstride < 0 {
		SADx4Generic(cur, cstride, cx, cy, ref, rstride, xs, ys, n, w, h, sums)
		return
	}
	SADx4Kernel(cur, cstride, cx, cy, ref, rstride, xs, ys, n, w, h, sums)
}

// SADx4Generic is SADx4's Go loop: SADGeneric at each position.
func SADx4Generic(cur []byte, cstride, cx, cy int, ref []byte, rstride int, xs, ys *[4]int, n, w, h int, sums *[4]int32) {
	*sums = [4]int32{}
	for k := 0; k < n; k++ {
		sums[k] = SADGeneric(cur, cstride, cx, cy, ref, rstride, xs[k], ys[k], w, h)
	}
}

// SADx4Kernel is the bounds proof and the call; 1 ≤ n ≤ 4, w, h > 0,
// strides ≥ 0. It indexes the first byte and the last byte of the last
// row of the current block and of each of the n reference blocks, as
// SADKernel does for one. The assembly always sums four blocks: the
// positions past n repeat the last one, so it reads nothing that is
// not a candidate's, and their sums are cleared.
func SADx4Kernel(cur []byte, cstride, cx, cy int, ref []byte, rstride int, xs, ys *[4]int, n, w, h int, sums *[4]int32) {
	c := cy*cstride + cx
	_ = cur[c+(h-1)*cstride+w-1]
	last := (h-1)*rstride + w - 1
	var r [4]*byte
	for k := 0; k < n; k++ {
		o := ys[k]*rstride + xs[k]
		_ = ref[o+last]
		r[k] = &ref[o]
	}
	for k := n; k < 4; k++ {
		r[k] = r[n-1]
	}
	sadx4AVX2(&cur[c], cstride, r[0], r[1], r[2], r[3], rstride, w, h, sums)
	for k := n; k < 4; k++ {
		sums[k] = 0
	}
}

// BufferSAD returns the sum of absolute differences of the first n
// bytes of a and b.
func BufferSAD(a, b []byte, n int) int32 {
	if !AVX2 || n <= 0 {
		return BufferSADGeneric(a, b, n)
	}
	return BufferSADKernel(a, b, n)
}

// BufferSADGeneric is BufferSAD's Go loop.
func BufferSADGeneric(a, b []byte, n int) int32 {
	var sum int32
	for i := 0; i < n; i++ {
		d := int32(a[i]) - int32(b[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// BufferSADKernel is the bounds proof and the call; n > 0. Indexing
// each buffer's last byte panics, as the Go loop would, on one too
// short. The n bytes of each buffer are one row for the SAD kernel.
func BufferSADKernel(a, b []byte, n int) int32 {
	_, _ = a[n-1], b[n-1]
	return sadAVX2(&a[0], n, &b[0], n, n, 1)
}

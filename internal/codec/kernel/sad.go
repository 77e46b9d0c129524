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

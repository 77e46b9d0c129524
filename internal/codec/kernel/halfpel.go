package kernel

// InterpHalf writes the w×h bilinear half-sample prediction at (x, y)
// of the plane pix, rows stride bytes apart, into dst (row-major,
// stride w). dx and dy are the phase, each 0 or 1 half sample right
// and down, not both 0: each output is the rounded mean of the two (or
// four) nearest samples, so the block reads one column right of it, one
// row below it, or both.
func InterpHalf(pix []byte, stride, x, y, dx, dy, w, h int, dst []byte) {
	if !AVX2 || w <= 0 || h <= 0 || stride < 0 {
		InterpGeneric(pix, stride, x, y, dx, dy, w, h, dst)
		return
	}
	InterpKernel(pix, stride, x, y, dx, dy, w, h, dst)
}

// InterpGeneric is InterpHalf's Go loops.
func InterpGeneric(pix []byte, stride, x, y, dx, dy, w, h int, dst []byte) {
	switch {
	case dy == 0: // horizontal half-pel
		for j := 0; j < h; j++ {
			row := pix[(y+j)*stride+x:]
			out := dst[j*w:]
			for i := 0; i < w; i++ {
				out[i] = byte((int(row[i]) + int(row[i+1]) + 1) / 2)
			}
		}
	case dx == 0: // vertical half-pel
		for j := 0; j < h; j++ {
			rowA := pix[(y+j)*stride+x:]
			rowB := pix[(y+j+1)*stride+x:]
			out := dst[j*w:]
			for i := 0; i < w; i++ {
				out[i] = byte((int(rowA[i]) + int(rowB[i]) + 1) / 2)
			}
		}
	default: // diagonal half-pel
		for j := 0; j < h; j++ {
			rowA := pix[(y+j)*stride+x:]
			rowB := pix[(y+j+1)*stride+x:]
			out := dst[j*w:]
			for i := 0; i < w; i++ {
				out[i] = byte((int(rowA[i]) + int(rowA[i+1]) + int(rowB[i]) + int(rowB[i+1]) + 2) / 4)
			}
		}
	}
}

// InterpKernel is the bounds proof and the call; w, h > 0, stride ≥ 0,
// and a half phase. The index expressions panic, as the Go loops'
// would, unless the last output byte is inside dst and the last byte
// the phase reads — one right of, one row below or diagonally past the
// block's last pixel — is inside the plane; rows being stride ≥ 0
// apart, that bounds every row the assembly reads.
func InterpKernel(pix []byte, stride, x, y, dx, dy, w, h int, dst []byte) {
	src := pix[y*stride+x:]
	_ = dst[w*h-1]
	switch {
	case dy == 0:
		_ = src[(h-1)*stride+w]
		avg2AVX2(&dst[0], &src[0], &src[1], stride, w, h)
	case dx == 0:
		_ = src[h*stride+w-1]
		avg2AVX2(&dst[0], &src[0], &src[stride], stride, w, h)
	default:
		_ = src[h*stride+w]
		avg4AVX2(&dst[0], &src[0], stride, w, h)
	}
}

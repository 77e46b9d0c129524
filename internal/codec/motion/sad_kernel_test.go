package motion

import (
	"fmt"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The walls between the AVX2 SAD and half-pel interpolation and their
// Go loops: each kernel.…Kernel against its kernel.…Generic, called
// directly.

// plane is a w×h image whose rows are stride bytes apart and whose pix
// ends on the last pixel of the last row.
type plane struct {
	pix          []byte
	w, h, stride int
}

func noisePlane(w, h, stride int, seed uint64) plane {
	return plane{kerneltest.NoiseBytes((h-1)*stride+w, seed), w, h, stride}
}

func checkSAD(t *testing.T, cur plane, cx, cy int, ref plane, rx, ry, w, h int) {
	t.Helper()
	got := kernel.SADKernel(cur.pix, cur.stride, cx, cy, ref.pix, ref.stride, rx, ry, w, h)
	if want := kernel.SADGeneric(cur.pix, cur.stride, cx, cy, ref.pix, ref.stride, rx, ry, w, h); got != want {
		t.Fatalf("%dx%d cur(%d,%d) stride %d ref(%d,%d) stride %d: kernel %d, Go loop %d",
			w, h, cx, cy, cur.stride, rx, ry, ref.stride, got, want)
	}
}

func TestSADMatchesScalar(t *testing.T) {
	kerneltest.NeedKernel(t)
	sizes := []int{4, 8, 12, 16, 24, 32, 64, 128}
	// Strides differ from each other and from every w; the planes are
	// exactly wide and tall enough for the largest block at the largest
	// offset, so those blocks end on the planes' last byte.
	cur := noisePlane(128+31, 128+3, 128+31+5, 1)
	ref := noisePlane(128+31, 128+3, 128+31+16, 2)
	for _, w := range sizes {
		for _, h := range sizes {
			for cx := 0; cx < 32; cx++ {
				for rx := 0; rx < 32; rx++ {
					checkSAD(t, cur, cx, cx%4, ref, rx, rx%4, w, h)
				}
			}
			checkSAD(t, cur, cur.w-w, cur.h-h, ref, ref.w-w, ref.h-h, w, h)
		}
	}
	for w := 1; w <= 33; w++ {
		for _, h := range []int{1, 2, 5, 16} {
			for off := 0; off < 32; off++ {
				checkSAD(t, cur, off, 1, ref, 31-off, 2, w, h)
			}
			checkSAD(t, cur, cur.w-w, cur.h-h, ref, ref.w-w, ref.h-h, w, h)
		}
	}

	// Every difference at its maximum: the largest block sums to
	// 128·128·255, which must arrive whole.
	black, white := plane{make([]byte, 128*128), 128, 128, 128}, plane{kerneltest.Filled[byte](255, 128*128), 128, 128, 128}
	for _, pair := range [][2]plane{{black, white}, {white, black}} {
		a, b := pair[0], pair[1]
		for _, w := range append(sizes, 1, 3, 33, 127) {
			checkSAD(t, a, 0, 0, b, 0, 0, w, 128)
			if got, want := kernel.SADKernel(a.pix, 128, 0, 0, b.pix, 128, 0, 0, w, 128), int32(w*128*255); got != want {
				t.Fatalf("0 vs 255 over %dx128: %d, want %d", w, got, want)
			}
		}
	}
}

// TestSADKernelKeepsTheGoLoopsEdges pins what SAD does where the kernel
// must not run: blocks without pixels sum to zero, and a block that
// does not fit its plane's bytes panics as the Go loop's indexing does
// instead of reaching the assembly.
func TestSADKernelKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	cur, ref := noisePlane(32, 32, 32, 3), noisePlane(32, 32, 32, 4)
	for _, wh := range [][2]int{{0, 8}, {8, 0}, {0, 0}, {-4, 8}, {8, -4}} {
		if got := kernel.SAD(cur.pix, 32, 8, 8, ref.pix, 32, 0, 0, wh[0], wh[1]); got != 0 {
			t.Errorf("%dx%d block sums to %d, want 0", wh[0], wh[1], got)
		}
	}
	short := cur.pix[:32*32-1]
	kerneltest.MustPanic(t, map[string]func(){
		"kernel":  func() { kernel.SADKernel(short, 32, 16, 16, ref.pix, 32, 0, 0, 16, 16) },
		"Go loop": func() { kernel.SADGeneric(short, 32, 16, 16, ref.pix, 32, 0, 0, 16, 16) },
	})
}

// FuzzSADKernelVsScalar lays two blocks out from raw bytes — sizes to
// 130, offsets to 63, row gaps to 15 — fills the planes from the rest
// and compares the two sums.
func FuzzSADKernelVsScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 15, 1, 33, 0, 3, 0xff, 0x00, 0x80})
	f.Add([]byte{129, 63, 63, 0, 15, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 2, 31, 17, 4, 0, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 6)
		fill := kerneltest.Header(data, hdr)
		w, h := 1+hdr[0]%130, 1+hdr[1]%130
		cx, rx := hdr[2]%64, hdr[3]%64
		cur := noisePlane(cx+w, h+1, cx+w+hdr[4]%16, 5)
		ref := noisePlane(rx+w, h+2, rx+w+hdr[5]%16, 6)
		if len(fill) > 0 {
			for i := range cur.pix {
				cur.pix[i] = fill[i%len(fill)]
			}
			for i := range ref.pix {
				ref.pix[i] ^= fill[(i*7+3)%len(fill)]
			}
		}
		checkSAD(t, cur, cx, 1, ref, rx, 2, w, h)
	})
}

// BenchmarkBlockSAD: the same block summed by the kernel and by the Go
// loop.
func BenchmarkBlockSAD(b *testing.B) {
	cur, ref := noisePlane(192, 192, 192, 7), noisePlane(192, 192, 192, 8)
	for _, w := range []int{4, 8, 16, 32, 64} {
		kerneltest.BenchPair(b, fmt.Sprintf("%dx%d", w, w),
			func() { kernel.SADKernel(cur.pix, 192, 33, 31, ref.pix, 192, 32, 32, w, w) },
			func() { kernel.SADGeneric(cur.pix, 192, 33, 31, ref.pix, 192, 32, 32, w, w) })
	}
}

// checkSADx4 holds SADx4Kernel to SADx4Generic and to one SADGeneric
// per position: the n sums, and zeros past n.
func checkSADx4(t *testing.T, cur plane, cx, cy int, ref plane, xs, ys [4]int, n, w, h int) {
	t.Helper()
	got, gen, want := [4]int32{-1, -1, -1, -1}, [4]int32{-1, -1, -1, -1}, [4]int32{}
	kernel.SADx4Kernel(cur.pix, cur.stride, cx, cy, ref.pix, ref.stride, &xs, &ys, n, w, h, &got)
	kernel.SADx4Generic(cur.pix, cur.stride, cx, cy, ref.pix, ref.stride, &xs, &ys, n, w, h, &gen)
	for k := 0; k < n; k++ {
		want[k] = kernel.SADGeneric(cur.pix, cur.stride, cx, cy, ref.pix, ref.stride, xs[k], ys[k], w, h)
	}
	if got != want || gen != want {
		t.Fatalf("%dx%d cur(%d,%d) stride %d, %d positions %v,%v stride %d: kernel %v, Go loop %v, four SADs %v",
			w, h, cx, cy, cur.stride, n, xs, ys, ref.stride, got, gen, want)
	}
}

// TestSADx4MatchesGeneric: one to four positions, duplicates among
// them, every width to 33 and the encoders' sizes, blocks ending on the
// plane's last byte, and 0 against 255 at the largest block.
func TestSADx4MatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	cur := noisePlane(64+31, 64+3, 64+31+5, 21)
	ref := noisePlane(64+40, 64+9, 64+40+16, 22)
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64}
	for _, w := range widths {
		for _, h := range []int{1, 2, 3, 4, 5, 8, 16, 17, 64} {
			last := [2]int{ref.w - w, ref.h - h} // ends on the plane's last byte
			for n := 1; n <= 4; n++ {
				for off := 0; off < 32; off += 3 {
					xs := [4]int{off, 31 - off, last[0], off % 7}
					ys := [4]int{off % 4, 9 - off%9, last[1], 2}
					checkSADx4(t, cur, off, off%4, ref, xs, ys, n, w, h)
				}
				// Duplicates: every position one block, and pairs.
				p := [2]int{5, 3}
				checkSADx4(t, cur, 1, 2, ref, [4]int{p[0], p[0], p[0], p[0]}, [4]int{p[1], p[1], p[1], p[1]}, n, w, h)
				checkSADx4(t, cur, cur.w-w, cur.h-h, ref, [4]int{last[0], 0, last[0], 0}, [4]int{last[1], 0, last[1], 0}, n, w, h)
			}
		}
	}
	black, white := plane{make([]byte, 64*64), 64, 64, 64}, plane{kerneltest.Filled[byte](255, 64*64), 64, 64, 64}
	for _, w := range []int{1, 3, 4, 16, 33, 64} {
		checkSADx4(t, black, 0, 0, white, [4]int{0, 0, 0, 0}, [4]int{0, 0, 0, 0}, 4, w, 64)
		var got [4]int32
		if kernel.SADx4Kernel(white.pix, 64, 0, 0, black.pix, 64, &[4]int{}, &[4]int{}, 4, w, 64, &got); got[3] != int32(w*64*255) {
			t.Fatalf("255 vs 0 over %dx64: %v, want %d each", w, got, w*64*255)
		}
	}
}

// TestSADx4KernelKeepsTheGoLoopsEdges: the selector sends what the
// assembly does not take to the Go loop (no positions, more than four,
// blocks without pixels), and a block one byte past its plane panics
// on both sides, whichever position it is.
func TestSADx4KernelKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	cur, ref := noisePlane(32, 32, 32, 23), noisePlane(32, 32, 32, 24)
	xs, ys := [4]int{0, 1, 2, 3}, [4]int{0, 1, 2, 3}
	for _, c := range [][3]int{{0, 8, 8}, {2, 0, 8}, {2, 8, 0}, {4, -4, 8}, {4, 8, -4}} {
		got := [4]int32{-1, -1, -1, -1}
		if kernel.SADx4(cur.pix, 32, 8, 8, ref.pix, 32, &xs, &ys, c[0], c[1], c[2], &got); got != [4]int32{} {
			t.Errorf("%d positions of %dx%d sum to %v, want zeros", c[0], c[1], c[2], got)
		}
	}
	kerneltest.MustPanic(t, map[string]func(){
		"Go loop, five positions": func() { kernel.SADx4(cur.pix, 32, 8, 8, ref.pix, 32, &xs, &ys, 5, 8, 8, new([4]int32)) },
	})
	short := ref.pix[:32*32-1]
	for k := 0; k < 4; k++ {
		far := xs
		far[k] = 16
		fy := ys
		fy[k] = 16
		kerneltest.MustPanic(t, map[string]func(){
			fmt.Sprintf("kernel, position %d", k):  func() { kernel.SADx4Kernel(cur.pix, 32, 0, 0, short, 32, &far, &fy, 4, 16, 16, new([4]int32)) },
			fmt.Sprintf("Go loop, position %d", k): func() { kernel.SADx4Generic(cur.pix, 32, 0, 0, short, 32, &far, &fy, 4, 16, 16, new([4]int32)) },
		})
	}
	kerneltest.MustPanic(t, map[string]func(){
		"kernel, current block": func() {
			kernel.SADx4Kernel(cur.pix[:32*32-1], 32, 16, 16, ref.pix, 32, &xs, &ys, 1, 16, 16, new([4]int32))
		},
		"Go loop, current block": func() {
			kernel.SADx4Generic(cur.pix[:32*32-1], 32, 16, 16, ref.pix, 32, &xs, &ys, 1, 16, 16, new([4]int32))
		},
	})
}

// FuzzSADx4KernelVsGeneric lays a current block and up to four
// reference positions out from raw bytes — sizes to 66, offsets to 63,
// row gaps to 15, positions repeated when the bytes say so — fills the
// planes from the rest and compares the kernel's sums with the Go
// loop's.
func FuzzSADx4KernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 15, 3, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9, 5, 0xff, 0x00})
	f.Add([]byte{65, 1, 0, 63, 0, 0, 0, 63, 63, 0, 0, 7, 15, 15, 1, 2, 3})
	f.Add([]byte{2, 64, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 14)
		fill := kerneltest.Header(data, hdr)
		w, h, n := 1+hdr[0]%66, 1+hdr[1]%66, 1+hdr[2]%4
		cx := hdr[3] % 64
		var xs, ys [4]int
		for k := range xs {
			xs[k], ys[k] = hdr[4+2*k]%64, hdr[5+2*k]%8
		}
		cur := noisePlane(cx+w, h+1, cx+w+hdr[12]%16, 25)
		ref := noisePlane(64+w, h+8, 64+w+hdr[13]%16, 26)
		if len(fill) > 0 {
			for i := range cur.pix {
				cur.pix[i] = fill[i%len(fill)]
			}
			for i := range ref.pix {
				ref.pix[i] ^= fill[(i*7+3)%len(fill)]
			}
		}
		checkSADx4(t, cur, cx, 1, ref, xs, ys, n, w, h)
	})
}

// BenchmarkSADx4: four positions of one block summed by the x4 kernel
// (/kernel) and by four SADKernel calls (/generic).
func BenchmarkSADx4(b *testing.B) {
	cur, ref := noisePlane(192, 192, 192, 27), noisePlane(192, 192, 192, 28)
	xs, ys := [4]int{30, 34, 32, 32}, [4]int{32, 32, 30, 34}
	var sums [4]int32
	for _, w := range []int{4, 8, 16, 32, 64} {
		kerneltest.BenchPair(b, fmt.Sprintf("%dx%d", w, w),
			func() { kernel.SADx4Kernel(cur.pix, 192, 33, 31, ref.pix, 192, &xs, &ys, 4, w, w, &sums) },
			func() {
				for k := range xs {
					kernel.SADKernel(cur.pix, 192, 33, 31, ref.pix, 192, xs[k], ys[k], w, w)
				}
			})
	}
}

// TestBufferSADMatchesGeneric: every block length, offsets mod 32, and
// 0 against 255.
func TestBufferSADMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	a, b := kerneltest.NoiseBytes(64*64+32, 13), kerneltest.NoiseBytes(64*64+32, 14)
	check := func(a, b []byte, n int) {
		t.Helper()
		if got, want := kernel.BufferSADKernel(a, b, n), kernel.BufferSADGeneric(a, b, n); got != want {
			t.Fatalf("%d bytes: kernel %d, Go loop %d", n, got, want)
		}
	}
	for _, n := range kerneltest.BlockLengths() {
		for off := 0; off < 32; off++ {
			check(a[off:], b[31-off:], n)
		}
		check(a[len(a)-n:], b[len(b)-n:], n)
	}
	zero, full := make([]byte, 64*64), kerneltest.Filled[byte](255, 64*64)
	if got := kernel.BufferSAD(zero, full, 64*64); got != 64*64*255 {
		t.Fatalf("0 vs 255 over 64×64: %d", got)
	}
	check(full, zero, 64*64)
}

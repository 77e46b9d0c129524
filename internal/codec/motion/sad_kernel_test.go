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

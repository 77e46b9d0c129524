package motion

import (
	"fmt"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/codec/cpuid"
	"vcprof/internal/video"
)

// The wall between the AVX2 SAD and the Go loop. Both are called
// directly (sadKernel, sadGeneric), so nothing here depends on what SAD
// itself selects, and a host that cannot run the kernel skips rather
// than comparing the Go loop with itself.

func needKernel(t testing.TB) {
	t.Helper()
	if !cpuid.AVX2 {
		t.Skip("host has no AVX2 (or the OS does not save YMM state): the kernel cannot run here")
	}
}

// noisePlane is a w×h plane with the given stride whose Pix ends on
// the last pixel of the last row, filled from a seeded generator.
func noisePlane(w, h, stride int, seed uint64) codec.Surface {
	p := &video.Plane{W: w, H: h, Stride: stride, Pix: make([]byte, (h-1)*stride+w)}
	s := seed
	for i := range p.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		p.Pix[i] = byte(s >> 56)
	}
	return codec.Surface{Plane: p}
}

func checkSAD(t *testing.T, cur codec.Surface, cx, cy int, ref codec.Surface, rx, ry, w, h int) {
	t.Helper()
	got := sadKernel(cur, cx, cy, ref, rx, ry, w, h)
	if want := sadGeneric(cur, cx, cy, ref, rx, ry, w, h); got != want {
		t.Fatalf("%dx%d cur(%d,%d) stride %d ref(%d,%d) stride %d: kernel %d, Go loop %d",
			w, h, cx, cy, cur.Stride, rx, ry, ref.Stride, got, want)
	}
}

func TestSADMatchesScalar(t *testing.T) {
	needKernel(t)
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
			checkSAD(t, cur, cur.W-w, cur.H-h, ref, ref.W-w, ref.H-h, w, h)
		}
	}
	for w := 1; w <= 33; w++ {
		for _, h := range []int{1, 2, 5, 16} {
			for off := 0; off < 32; off++ {
				checkSAD(t, cur, off, 1, ref, 31-off, 2, w, h)
			}
			checkSAD(t, cur, cur.W-w, cur.H-h, ref, ref.W-w, ref.H-h, w, h)
		}
	}

	// Every difference at its maximum: the largest block sums to
	// 128·128·255, which must arrive whole.
	black, white := video.NewPlane(128, 128), video.NewPlane(128, 128)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	for _, pair := range [][2]*video.Plane{{black, white}, {white, black}} {
		a, b := codec.Surface{Plane: pair[0]}, codec.Surface{Plane: pair[1]}
		for _, w := range append(sizes, 1, 3, 33, 127) {
			checkSAD(t, a, 0, 0, b, 0, 0, w, 128)
			if got, want := sadKernel(a, 0, 0, b, 0, 0, w, 128), int32(w*128*255); got != want {
				t.Fatalf("0 vs 255 over %dx128: %d, want %d", w, got, want)
			}
		}
	}
}

// TestSADKernelKeepsTheGoLoopsEdges pins what blockSAD does where the
// kernel must not run: blocks without pixels sum to zero, and a block
// that does not fit its plane's bytes panics as the Go loop's indexing
// does instead of reaching the assembly.
func TestSADKernelKeepsTheGoLoopsEdges(t *testing.T) {
	needKernel(t)
	cur, ref := noisePlane(32, 32, 32, 3), noisePlane(32, 32, 32, 4)
	for _, wh := range [][2]int{{0, 8}, {8, 0}, {0, 0}, {-4, 8}, {8, -4}} {
		if got := blockSAD(cur, 8, 8, ref, 0, 0, wh[0], wh[1]); got != 0 {
			t.Errorf("%dx%d block sums to %d, want 0", wh[0], wh[1], got)
		}
	}
	short := codec.Surface{Plane: &video.Plane{W: 32, H: 32, Stride: 32, Pix: cur.Pix[:32*32-1]}}
	for name, f := range map[string]func(){
		"kernel":  func() { sadKernel(short, 16, 16, ref, 0, 0, 16, 16) },
		"Go loop": func() { sadGeneric(short, 16, 16, ref, 0, 0, 16, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a block one byte past its plane did not panic", name)
				}
			}()
			f()
		}()
	}
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
		needKernel(t)
		var hdr [6]int
		for i := range hdr {
			if i < len(data) {
				hdr[i] = int(data[i])
			}
		}
		w, h := 1+hdr[0]%130, 1+hdr[1]%130
		cx, rx := hdr[2]%64, hdr[3]%64
		cur := noisePlane(cx+w, h+1, cx+w+hdr[4]%16, 5)
		ref := noisePlane(rx+w, h+2, rx+w+hdr[5]%16, 6)
		if len(data) > len(hdr) {
			fill := data[len(hdr):]
			for i := range cur.Pix {
				cur.Pix[i] = fill[i%len(fill)]
			}
			for i := range ref.Pix {
				ref.Pix[i] ^= fill[(i*7+3)%len(fill)]
			}
		}
		checkSAD(t, cur, cx, 1, ref, rx, 2, w, h)
	})
}

// BenchmarkBlockSAD shows the ratio `make bench` records: the same
// block summed by the kernel and by the Go loop.
func BenchmarkBlockSAD(b *testing.B) {
	cur, ref := noisePlane(192, 192, 192, 7), noisePlane(192, 192, 192, 8)
	for _, w := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d/kernel", w, w), func(b *testing.B) {
			needKernel(b)
			for i := 0; i < b.N; i++ {
				sadKernel(cur, 33, 31, ref, 32, 32, w, w)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/generic", w, w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sadGeneric(cur, 33, 31, ref, 32, 32, w, w)
			}
		})
	}
}

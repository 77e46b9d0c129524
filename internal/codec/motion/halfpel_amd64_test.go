package motion

import (
	"bytes"
	"fmt"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/video"
)

// The wall between the half-pel kernels and their Go loops, called
// directly (interpKernel against interpGeneric, bufferSADKernel against
// bufferSADGeneric), as sad_amd64_test.go does for the SAD.

var halfPhases = []SubPel{{X: 1}, {Y: 1}, {X: 1, Y: 1}}

func checkInterp(t *testing.T, ref codec.Surface, x, y int, sub SubPel, w, h int) {
	t.Helper()
	got, want := make([]byte, w*h), make([]byte, w*h)
	interpKernel(ref, x, y, sub, w, h, got)
	interpGeneric(ref, x, y, sub, w, h, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v %dx%d at (%d,%d) stride %d: kernel %v, Go loop %v", sub, w, h, x, y, ref.Stride, got, want)
	}
}

// TestInterpMatchesGeneric covers every phase at every width to 70
// (each mix of 32-, 16-, 8-, 4- and 1-byte steps), the block sizes the
// encoders predict at every x offset mod 32, strides beyond the
// interpolated width, blocks whose last tap is the plane's last byte,
// and 0/255 planes, whose diagonal sums reach 4·255+2.
func TestInterpMatchesGeneric(t *testing.T) {
	needKernel(t)
	ref := noisePlane(64+33, 64+3, 64+33+7, 11)
	for _, sub := range halfPhases {
		for w := 1; w <= 70; w++ {
			for _, h := range []int{1, 2, 3, 8} {
				checkInterp(t, ref, 3, 1, sub, w, h)
				checkInterp(t, ref, ref.W-w-int(sub.X), ref.H-h-int(sub.Y), sub, w, h)
			}
		}
		for _, w := range []int{4, 8, 16, 32, 64} {
			for _, h := range []int{4, 8, 16, 32, 64} {
				for x := 0; x < 32; x++ {
					checkInterp(t, ref, x, x%3, sub, w, h)
				}
			}
		}
	}
	white := video.NewPlane(72, 72)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	black := video.NewPlane(72, 72)
	checker := video.NewPlane(72, 72)
	for i := range checker.Pix {
		checker.Pix[i] = byte(255 * ((i ^ i/72) & 1))
	}
	for _, p := range []*video.Plane{white, black, checker} {
		for _, sub := range halfPhases {
			for _, w := range []int{1, 5, 16, 33, 64, 71} {
				checkInterp(t, codec.Surface{Plane: p}, 0, 0, sub, w, 71)
			}
		}
	}
}

// TestInterpKernelKeepsTheGoLoopsEdges pins what interpHalf does where
// the kernels must not run: no output for blocks without pixels, and a
// panic, as the Go loops' indexing gives, for a plane or an output one
// byte short.
func TestInterpKernelKeepsTheGoLoopsEdges(t *testing.T) {
	needKernel(t)
	ref := noisePlane(32, 32, 32, 12)
	for _, wh := range [][2]int{{0, 8}, {8, 0}} {
		interpHalf(ref, 0, 0, SubPel{X: 1, Y: 1}, wh[0], wh[1], nil)
	}
	short := codec.Surface{Plane: &video.Plane{W: 32, H: 32, Stride: 32, Pix: ref.Pix[:32*32-1]}}
	for _, sub := range halfPhases {
		x, y := 16-int(sub.X), 16-int(sub.Y) // the last tap is the plane's last pixel
		for name, f := range map[string]func(){
			"kernel, plane":    func() { interpKernel(short, x, y, sub, 16, 16, make([]byte, 256)) },
			"Go loop, plane":   func() { interpGeneric(short, x, y, sub, 16, 16, make([]byte, 256)) },
			"kernel, output":   func() { interpKernel(ref, 0, 0, sub, 16, 16, make([]byte, 255)) },
			"Go loop, output":  func() { interpGeneric(ref, 0, 0, sub, 16, 16, make([]byte, 255)) },
			"kernel, buffer":   func() { bufferSADKernel(ref.Pix[:255], ref.Pix, 256) },
			"Go loop, buffer:": func() { bufferSADGeneric(ref.Pix[:255], ref.Pix, 256) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%+v %s: a read or write one byte out did not panic", sub, name)
					}
				}()
				f()
			}()
		}
	}
	if got := bufferSAD(ref.Pix, ref.Pix, 0); got != 0 {
		t.Errorf("an empty buffer sums to %d", got)
	}
}

// TestBufferSADMatchesGeneric: every length to 300, the encoders'
// block areas, offsets mod 32, and 0 against 255.
func TestBufferSADMatchesGeneric(t *testing.T) {
	needKernel(t)
	a, b := noisePlane(64*64+32, 1, 64*64+32, 13).Pix, noisePlane(64*64+32, 1, 64*64+32, 14).Pix
	check := func(a, b []byte, n int) {
		t.Helper()
		if got, want := bufferSADKernel(a, b, n), bufferSADGeneric(a, b, n); got != want {
			t.Fatalf("%d bytes: kernel %d, Go loop %d", n, got, want)
		}
	}
	var ns []int
	for n := 1; n <= 300; n++ {
		ns = append(ns, n)
	}
	for _, w := range []int{4, 8, 16, 32, 64} {
		for _, h := range []int{4, 8, 16, 32, 64} {
			ns = append(ns, w*h)
		}
	}
	for _, n := range ns {
		for off := 0; off < 32; off++ {
			check(a[off:], b[31-off:], n)
		}
		check(a[len(a)-n:], b[len(b)-n:], n)
	}
	zero, full := make([]byte, 64*64), bytes.Repeat([]byte{255}, 64*64)
	if got := BufferSAD(zero, full, 64, 64); got != 64*64*255 {
		t.Fatalf("0 vs 255 over 64×64: %d", got)
	}
	check(full, zero, 64*64)
}

func TestHalfPelKernelsDoNotAllocate(t *testing.T) {
	ref, dst := noisePlane(96, 96, 96, 15), make([]byte, 64*64)
	for _, sub := range halfPhases {
		if n := testing.AllocsPerRun(100, func() { interpHalf(ref, 1, 1, sub, 64, 64, dst) }); n != 0 {
			t.Errorf("%+v interpolation allocates %v times a call", sub, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = BufferSAD(ref.Pix, dst, 64, 64) }); n != 0 {
		t.Errorf("BufferSAD allocates %v times a call", n)
	}
}

// FuzzInterpKernelVsGeneric lays a block out from raw bytes — phase,
// width to 80, height to 40, x offset to 31, row gap to 15 — fills the
// plane from the rest and compares the two outputs.
func FuzzInterpKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 15, 15, 1, 0, 0xff, 0x00})
	f.Add([]byte{0, 32, 3, 31, 15, 0xff, 0xfe, 0x01})
	f.Add([]byte{1, 6, 39, 7, 3, 0x80, 0x7f, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		needKernel(t)
		var hdr [5]int
		for i := range hdr {
			if i < len(data) {
				hdr[i] = int(data[i])
			}
		}
		sub := halfPhases[hdr[0]%3]
		w, h, x := 1+hdr[1]%80, 1+hdr[2]%40, hdr[3]%32
		ref := noisePlane(x+w+1, h+1, x+w+1+hdr[4]%16, 16)
		if fill := data[min(len(data), len(hdr)):]; len(fill) > 0 {
			for i := range ref.Pix {
				ref.Pix[i] = fill[(i*5+1)%len(fill)]
			}
		}
		checkInterp(t, ref, x, 0, sub, w, h)
	})
}

// BenchmarkInterpHalfPel shows the ratio `make bench` records: the same
// w×w prediction interpolated by the kernels and by the Go loops, per
// phase.
func BenchmarkInterpHalfPel(b *testing.B) {
	ref, dst := noisePlane(192, 192, 192, 17), make([]byte, 64*64)
	for _, sub := range halfPhases {
		for _, w := range []int{8, 16, 32, 64} {
			name := fmt.Sprintf("%s/%dx%d", map[SubPel]string{{X: 1}: "h", {Y: 1}: "v", {X: 1, Y: 1}: "hv"}[sub], w, w)
			b.Run(name+"/kernel", func(b *testing.B) {
				needKernel(b)
				for i := 0; i < b.N; i++ {
					interpKernel(ref, 33, 31, sub, w, w, dst)
				}
			})
			b.Run(name+"/generic", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					interpGeneric(ref, 33, 31, sub, w, w, dst)
				}
			})
		}
	}
}

package motion

import (
	"bytes"
	"fmt"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// phase is one of InterpHalf's half phases, named as the benchmarks
// name it.
type phase struct {
	name   string
	dx, dy int
}

var halfPhases = []phase{{"h", 1, 0}, {"v", 0, 1}, {"hv", 1, 1}}

func checkInterp(t *testing.T, ref plane, x, y int, sub phase, w, h int) {
	t.Helper()
	got, want := make([]byte, w*h), make([]byte, w*h)
	kernel.InterpKernel(ref.pix, ref.stride, x, y, sub.dx, sub.dy, w, h, got)
	kernel.InterpGeneric(ref.pix, ref.stride, x, y, sub.dx, sub.dy, w, h, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %dx%d at (%d,%d) stride %d: kernel %v, Go loop %v", sub.name, w, h, x, y, ref.stride, got, want)
	}
}

// TestInterpMatchesGeneric covers every phase at every width to 70
// (each mix of 32-, 16-, 8-, 4- and 1-byte steps), the block sizes the
// encoders predict at every x offset mod 32, strides beyond the
// interpolated width, blocks whose last tap is the plane's last byte,
// and 0/255 planes, whose diagonal sums reach 4·255+2.
func TestInterpMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	ref := noisePlane(64+33, 64+3, 64+33+7, 11)
	for _, sub := range halfPhases {
		for w := 1; w <= 70; w++ {
			for _, h := range []int{1, 2, 3, 8} {
				checkInterp(t, ref, 3, 1, sub, w, h)
				checkInterp(t, ref, ref.w-w-sub.dx, ref.h-h-sub.dy, sub, w, h)
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
	checker := make([]byte, 72*72)
	for i := range checker {
		checker[i] = byte(255 * ((i ^ i/72) & 1))
	}
	for _, pix := range [][]byte{kerneltest.Filled[byte](255, 72*72), make([]byte, 72*72), checker} {
		for _, sub := range halfPhases {
			for _, w := range []int{1, 5, 16, 33, 64, 71} {
				checkInterp(t, plane{pix, 72, 72, 72}, 0, 0, sub, w, 71)
			}
		}
	}
}

// TestInterpKernelKeepsTheGoLoopsEdges pins what InterpHalf and
// BufferSAD do where the kernels must not run: no output for blocks
// without pixels, and a panic, as the Go loops' indexing gives, for a
// plane, an output or a buffer one byte short.
func TestInterpKernelKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	ref := noisePlane(32, 32, 32, 12)
	for _, wh := range [][2]int{{0, 8}, {8, 0}} {
		kernel.InterpHalf(ref.pix, 32, 0, 0, 1, 1, wh[0], wh[1], nil)
	}
	short := ref.pix[:32*32-1]
	for _, sub := range halfPhases {
		x, y := 16-sub.dx, 16-sub.dy // the last tap is the plane's last pixel
		kerneltest.MustPanic(t, map[string]func(){
			sub.name + " kernel, plane":   func() { kernel.InterpKernel(short, 32, x, y, sub.dx, sub.dy, 16, 16, make([]byte, 256)) },
			sub.name + " Go loop, plane":  func() { kernel.InterpGeneric(short, 32, x, y, sub.dx, sub.dy, 16, 16, make([]byte, 256)) },
			sub.name + " kernel, output":  func() { kernel.InterpKernel(ref.pix, 32, 0, 0, sub.dx, sub.dy, 16, 16, make([]byte, 255)) },
			sub.name + " Go loop, output": func() { kernel.InterpGeneric(ref.pix, 32, 0, 0, sub.dx, sub.dy, 16, 16, make([]byte, 255)) },
		})
	}
	kerneltest.MustPanic(t, map[string]func(){
		"kernel, buffer":  func() { kernel.BufferSADKernel(ref.pix[:255], ref.pix, 256) },
		"Go loop, buffer": func() { kernel.BufferSADGeneric(ref.pix[:255], ref.pix, 256) },
	})
	if got := kernel.BufferSAD(ref.pix, ref.pix, 0); got != 0 {
		t.Errorf("an empty buffer sums to %d", got)
	}
}

func TestHalfPelKernelsDoNotAllocate(t *testing.T) {
	ref, dst := noisePlane(96, 96, 96, 15), make([]byte, 64*64)
	for _, sub := range halfPhases {
		if n := testing.AllocsPerRun(100, func() { kernel.InterpHalf(ref.pix, 96, 1, 1, sub.dx, sub.dy, 64, 64, dst) }); n != 0 {
			t.Errorf("%s interpolation allocates %v times a call", sub.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = kernel.BufferSAD(ref.pix, dst, 64*64) }); n != 0 {
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
		kerneltest.NeedKernel(t)
		hdr := make([]int, 5)
		fill := kerneltest.Header(data, hdr)
		sub := halfPhases[hdr[0]%3]
		w, h, x := 1+hdr[1]%80, 1+hdr[2]%40, hdr[3]%32
		ref := noisePlane(x+w+1, h+1, x+w+1+hdr[4]%16, 16)
		if len(fill) > 0 {
			for i := range ref.pix {
				ref.pix[i] = fill[(i*5+1)%len(fill)]
			}
		}
		checkInterp(t, ref, x, 0, sub, w, h)
	})
}

// BenchmarkInterpHalfPel: the same w×w prediction interpolated by the
// kernels and by the Go loops, per phase.
func BenchmarkInterpHalfPel(b *testing.B) {
	ref, dst := noisePlane(192, 192, 192, 17), make([]byte, 64*64)
	for _, sub := range halfPhases {
		for _, w := range []int{8, 16, 32, 64} {
			kerneltest.BenchPair(b, fmt.Sprintf("%s/%dx%d", sub.name, w, w),
				func() { kernel.InterpKernel(ref.pix, 192, 33, 31, sub.dx, sub.dy, w, w, dst) },
				func() { kernel.InterpGeneric(ref.pix, 192, 33, 31, sub.dx, sub.dy, w, w, dst) })
		}
	}
}

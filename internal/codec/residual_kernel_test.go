package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The walls between the AVX2 residual and tile SSE and their Go loops:
// each kernel.…Kernel against its kernel.…Generic, called directly.

func checkResidual(t *testing.T, cur, pred []byte, n int) {
	t.Helper()
	got, want := make([]int32, n), make([]int32, n)
	kernel.ResidualKernel(cur, pred, got)
	kernel.ResidualGeneric(cur, pred, want)
	if !slices.Equal(got, want) {
		t.Fatalf("%d samples: kernel %v, Go loop %v", n, got, want)
	}
}

// TestResidualMatchesGeneric covers every block length at every source
// offset mod 32, on noise, on 0 against 255 both ways and on sources
// that end on their slices' last byte.
func TestResidualMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	cur, pred := kerneltest.NoiseBytes(64*64+64, 1), kerneltest.NoiseBytes(64*64+64, 2)
	black, white := make([]byte, 64*64), kerneltest.Filled[byte](255, 64*64)
	for _, n := range kerneltest.BlockLengths() {
		for off := 0; off < 32; off++ {
			checkResidual(t, cur[off:], pred[31-off:], n)
		}
		checkResidual(t, cur[len(cur)-n:], pred[len(pred)-n:], n)
		if n <= len(black) {
			checkResidual(t, black[:n], white[:n], n)
			checkResidual(t, white[:n], black[:n], n)
		}
	}
	got := make([]int32, 64*64)
	kernel.ResidualKernel(black, white, got)
	if got[0] != -255 || got[len(got)-1] != -255 {
		t.Fatalf("0 − 255 gave %d … %d", got[0], got[len(got)-1])
	}
}

func checkTileSSE(t *testing.T, a []int32, astride int, b []int32, bstride, w, h int) {
	t.Helper()
	got := kernel.TileSSEKernel(a, astride, b, bstride, w, h)
	if want := kernel.TileSSEGeneric(a, astride, b, bstride, w, h); got != want {
		t.Fatalf("%dx%d strides %d, %d: kernel %d, Go loop %d", w, h, astride, bstride, got, want)
	}
}

// TestTileSSEMatchesGeneric covers every width to 72 at several heights
// with strides beyond the width, the square tiles the RD search
// measures, blocks that end on their slices' last sample, and the int32
// extremes, where the difference wraps before it is squared and the
// int64 sum wraps too.
func TestTileSSEMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	inputs := map[string][2][]int32{
		"residual": {kerneltest.NoiseInt32s(80*80, 1, -255, -17, 0, 3, 255), kerneltest.NoiseInt32s(80*80, 2, -300, -1, 0, 1, 300)},
		"noise":    {kerneltest.NoiseInt32s(80*80, 3), kerneltest.NoiseInt32s(80*80, 4)},
		"limits":   {kerneltest.NoiseInt32s(80*80, 5, math.MinInt32, math.MaxInt32, 0, -1), kerneltest.NoiseInt32s(80*80, 6, math.MinInt32, math.MaxInt32, 1)},
	}
	for name, in := range inputs {
		a, b := in[0], in[1]
		t.Run(name, func(t *testing.T) {
			for w := 1; w <= 72; w++ {
				for _, h := range []int{1, 2, 5, 16} {
					checkTileSSE(t, a, w, b, w, w, h)
					checkTileSSE(t, a[w%7:], w+3, b[w%5:], w+8, w, h)
					checkTileSSE(t, a[len(a)-(h-1)*(w+1)-w:], w+1, b[len(b)-(h-1)*(w+5)-w:], w+5, w, h)
				}
			}
			for _, side := range []int{4, 8, 16, 32, 64} {
				checkTileSSE(t, a[3:], 80, b, side, side, side)
				checkTileSSE(t, a, side, b[1:], 79, side, side)
			}
		})
	}
	// The largest square difference, every lane: (MaxInt32 − MinInt32)
	// wraps to −1, so each sample adds 1; MinInt32 − 0 squares to 2⁶².
	lo, hi := kerneltest.Filled[int32](math.MinInt32, 64*64), kerneltest.Filled[int32](math.MaxInt32, 64*64)
	if got := kernel.TileSSEKernel(hi, 64, lo, 64, 64, 64); got != 64*64 {
		t.Fatalf("MaxInt32 − MinInt32 over 64×64: %d, want %d", got, 64*64)
	}
	checkTileSSE(t, lo, 64, make([]int32, 64*64), 64, 64, 64)
}

// TestKernelsKeepTheGoLoopsEdges pins what Residual and TileSSE do
// where the kernels must not run: empty blocks sum to zero, and inputs
// one sample short panic as the Go loops' bounds checks do instead of
// reaching the assembly.
func TestKernelsKeepTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	a, b := kerneltest.NoiseInt32s(64, 1), kerneltest.NoiseInt32s(64, 2)
	for _, wh := range [][2]int{{0, 8}, {8, 0}, {-4, 8}, {8, -4}} {
		if got := kernel.TileSSE(a, 8, b, 8, wh[0], wh[1]); got != 0 {
			t.Errorf("%dx%d block sums to %d, want 0", wh[0], wh[1], got)
		}
	}
	kernel.Residual(nil, nil, nil)
	short := kerneltest.NoiseBytes(64, 3)[:63:63]
	kerneltest.MustPanic(t, map[string]func(){
		"residual kernel":  func() { kernel.ResidualKernel(short, short, make([]int32, 64)) },
		"residual Go loop": func() { kernel.ResidualGeneric(short, short, make([]int32, 64)) },
		"SSE kernel":       func() { kernel.TileSSEKernel(a[:63], 8, b, 8, 8, 8) },
		"SSE Go loop":      func() { kernel.TileSSEGeneric(a[:63], 8, b, 8, 8, 8) },
	})
}

func TestResidualAndTileSSEDoNotAllocate(t *testing.T) {
	cur, pred, dst := kerneltest.NoiseBytes(64*64, 1), kerneltest.NoiseBytes(64*64, 2), make([]int32, 64*64)
	a, b := kerneltest.NoiseInt32s(64*64, 3), kerneltest.NoiseInt32s(64*64, 4)
	if n := testing.AllocsPerRun(100, func() { kernel.Residual(cur, pred, dst) }); n != 0 {
		t.Errorf("Residual allocates %v times a call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = kernel.TileSSE(a, 64, b, 64, 64, 64) }); n != 0 {
		t.Errorf("TileSSE allocates %v times a call", n)
	}
}

// FuzzResidualKernelVsGeneric: the first two bytes are the length (to
// 4,159) and the source offset (to 63); the rest fill the sources.
func FuzzResidualKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0xff, 0x00})
	f.Add([]byte{0x10, 0x03, 0x00, 0xff, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 2)
		fill := kerneltest.Header(data, hdr)
		n, off := 1+(hdr[0]<<4|hdr[1]>>4)%4159, hdr[1]%64
		cur, pred := kerneltest.NoiseBytes(off+n, 7), kerneltest.NoiseBytes(n+off, 8)
		if len(fill) > 0 {
			for i := range cur {
				cur[i] = fill[i%len(fill)]
				pred[i] ^= fill[(i*7+3)%len(fill)]
			}
		}
		checkResidual(t, cur[off:], pred[:n], n)
	})
}

// FuzzTileSSEKernelVsGeneric lays two blocks out from raw bytes —
// width to 80, height to 40, row gaps to 15 — and fills them from the
// rest, four little-endian bytes a sample.
func FuzzTileSSEKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{31, 31, 0, 0, 0x00, 0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{6, 2, 7, 15, 0xff, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 4)
		fill := kerneltest.Header(data, hdr)
		w, h := 1+hdr[0]%80, 1+hdr[1]%40
		as, bs := w+hdr[2]%16, w+hdr[3]%16
		a, b := kerneltest.NoiseInt32s((h-1)*as+w, 9), kerneltest.NoiseInt32s((h-1)*bs+w, 10)
		if len(fill) >= 4 {
			for i := range a {
				a[i] = int32(binary.LittleEndian.Uint32(fill[4*i%(len(fill)-3):]))
			}
			for i := range b {
				b[i] ^= int32(binary.LittleEndian.Uint32(fill[(4*i+1)%(len(fill)-3):]))
			}
		}
		checkTileSSE(t, a, as, b, bs, w, h)
	})
}

var sseSink int64

// BenchmarkResidual: the same n×n block by the kernel and by the Go
// loop.
func BenchmarkResidual(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		cur, pred, dst := kerneltest.NoiseBytes(n*n, 1), kerneltest.NoiseBytes(n*n, 2), make([]int32, n*n)
		kerneltest.BenchPair(b, fmt.Sprint(n),
			func() { kernel.ResidualKernel(cur, pred, dst) },
			func() { kernel.ResidualGeneric(cur, pred, dst) })
	}
}

// BenchmarkTileSSE measures tiles the way the RD search does: one
// strided out of a 64-wide residual against a packed reconstruction.
func BenchmarkTileSSE(b *testing.B) {
	res := kerneltest.NoiseInt32s(64*64, 3, -255, -40, -3, 0, 2, 17, 255)
	for _, n := range []int{8, 16, 32, 64} {
		tile := kerneltest.NoiseInt32s(n*n, 4, -250, -37, -2, 0, 3, 15, 251)
		kerneltest.BenchPair(b, fmt.Sprint(n),
			func() { sseSink = kernel.TileSSEKernel(res, 64, tile, n, n, n) },
			func() { sseSink = kernel.TileSSEGeneric(res, 64, tile, n, n, n) })
	}
}

package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The wall between the AVX2 SATD and the Go loop: kernel.SATDKernel
// against kernel.SATDGeneric, on the residuals of satd_test.go.

func checkSATDKernel(t *testing.T, res []int32, w, h int) {
	t.Helper()
	if got, want := kernel.SATDKernel(res, w, h), kernel.SATDGeneric(res, w, h); got != want {
		t.Fatalf("%dx%d: kernel %d, Go loop %d", w, h, got, want)
	}
}

// TestSATDKernelMatchesGeneric covers every multiple-of-4 size from 8
// wide and 4 tall to 72×72 (odd tile columns included) on residual
// noise, full-range noise, ±255, ±2²⁰ and the int32 limits, where the
// butterflies and the tile sums wrap, the magnitude of MinInt32 is
// MinInt32 and a tile sum can be negative before it is halved.
func TestSATDKernelMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	for w := 8; w <= 72; w += 4 {
		for h := 4; h <= 72; h += 4 {
			for name, res := range satdBlocks(w, h) {
				t.Run(fmt.Sprintf("%dx%d/%s", w, h, name), func(t *testing.T) {
					checkSATDKernel(t, res, w, h)
				})
			}
			checkSATDKernel(t, kerneltest.NoiseInt32s(w*h, uint64(w*h)), w, h)
		}
	}
	// Every tile sum wraps negative: sixteen magnitudes of MinInt32 are
	// 0 mod 2³², but a single MinInt32 in a zero tile makes every
	// output ±MinInt32, and a tile of alternating ±2²⁹ sums past
	// MaxInt32.
	for _, v := range []int32{math.MinInt32, 1 << 29, -(1 << 29), math.MaxInt32} {
		for _, w := range []int{8, 12, 16, 32} {
			res := make([]int32, w*8)
			for i := 0; i < len(res); i += 5 {
				res[i] = v
			}
			checkSATDKernel(t, res, w, 8)
			for i := range res {
				res[i] = v * int32(1-2*(i&1))
			}
			checkSATDKernel(t, res, w, 8)
		}
	}
}

// TestSATDKernelKeepsTheGoLoopsEdges: a residual short of its last
// tile panics on both sides, and one tile wide never reaches the
// kernel.
func TestSATDKernelKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	res := kerneltest.NoiseInt32s(16*16, 1)
	// One sample short with no room past it; and short of the last
	// tile's first sample with room enough past it, where the Go loop's
	// re-slice at that tile is what panics.
	kerneltest.MustPanic(t, map[string]func(){
		"kernel, short":   func() { kernel.SATDKernel(res[:16*16-1:16*16-1], 16, 16) },
		"Go loop, short":  func() { kernel.SATDGeneric(res[:16*16-1:16*16-1], 16, 16) },
		"kernel, before":  func() { kernel.SATDKernel(res[:16*13-5], 16, 16) },
		"Go loop, before": func() { kernel.SATDGeneric(res[:16*13-5], 16, 16) },
	})
	if got, want := kernel.SATD(res, 4, 16), kernel.SATDGeneric(res, 4, 16); got != want {
		t.Errorf("4x16: %d, Go loop %d", got, want)
	}
}

// FuzzSATDKernelVsGeneric: the first byte picks the size (8 to 72 wide,
// 4 to 64 tall, multiples of 4); every four bytes after it are one
// little-endian sample, cycled over the block.
func FuzzSATDKernelVsGeneric(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{17, 0x00, 0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{200, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		if len(data) == 0 {
			return
		}
		w, h := 8+4*(int(data[0])%17), 4+4*(int(data[0])/17)
		res := kerneltest.NoiseInt32s(w*h, uint64(data[0]), 0, 1, -1, 255, -255)
		if fill := data[1:]; len(fill) >= 4 {
			for i := range res {
				res[i] = int32(binary.LittleEndian.Uint32(fill[4*i%(len(fill)-3):]))
			}
		}
		checkSATDKernel(t, res, w, h)
	})
}

var satdSink int32

// BenchmarkSATD: the same n×n residual summed by the kernel and by the
// Go loop.
func BenchmarkSATD(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		res := satdBlocks(n, n)["dense"]
		kerneltest.BenchPair(b, fmt.Sprint(n),
			func() { satdSink = kernel.SATDKernel(res, n, n) },
			func() { satdSink = kernel.SATDGeneric(res, n, n) })
	}
}

package rdo

import (
	"fmt"
	"math"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
	"vcprof/internal/codec/quant"
	"vcprof/internal/codec/transform"
)

// The wall between the AVX2 rate estimate and its Go loop:
// kernel.BitsEstimateKernel against kernel.BitsEstimateGeneric, and
// both against refBitsEstimate.

func checkBits(t *testing.T, id string, levels []int32) {
	t.Helper()
	want := refBitsEstimate(levels)
	if got := kernel.BitsEstimateGeneric(levels); got != want {
		t.Fatalf("%s: Go loop %d, reference %d", id, got, want)
	}
	if got := BitsEstimate(levels); got != want {
		t.Fatalf("%s: BitsEstimate %d, reference %d", id, got, want)
	}
	if len(levels) == 0 || !kernel.AVX2 {
		return
	}
	if got := kernel.BitsEstimateKernel(levels); got != want {
		t.Fatalf("%s: kernel %d, reference %d (levels %v)", id, got, want, levels)
	}
}

// bitsLengths is every length to 70 and the block areas the encoders
// estimate.
var bitsLengths = func() []int {
	ns := []int{16, 64, 256, 1024}
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return ns
}()

var bitsValues = []int32{1, -1, 2, -3, 1 << 20, math.MaxInt32, math.MinInt32, math.MinInt32 + 1}

// TestBitsEstimateMatchesGeneric covers every length to 70 and the
// encoders' block areas: all-zero blocks (1 bit, the coded-block flag);
// each value of bitsValues alone at every position, behind every count
// of leading zeros and before every count of trailing ones; runs of
// 0–9 zeros between nonzero levels starting at every offset mod 8, so
// every run crosses every 8-lane boundary; and sparse and full-range
// noise.
func TestBitsEstimateMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	for _, n := range bitsLengths {
		zero := make([]int32, n)
		checkBits(t, fmt.Sprintf("%d zeros", n), zero)
		if n > 0 && kernel.BitsEstimateKernel(zero) != 1 {
			t.Fatalf("%d zeros: %d bits, want 1", n, kernel.BitsEstimateKernel(zero))
		}
		for _, v := range bitsValues {
			for p := 0; p < n; p++ {
				b := make([]int32, n)
				b[p] = v
				checkBits(t, fmt.Sprintf("%d at %d of %d", v, p, n), b)
			}
		}
		for run := 0; run <= 9; run++ {
			for off := 0; off < 8 && off < n; off++ {
				b := make([]int32, n)
				for i := off; i < n; i += run + 1 {
					b[i] = bitsValues[i%len(bitsValues)]
				}
				checkBits(t, fmt.Sprintf("runs of %d from %d of %d", run, off, n), b)
			}
		}
		checkBits(t, fmt.Sprintf("sparse %d", n), kerneltest.NoiseInt32s(n, uint64(n), 0, 0, 0, 0, 0, 1, -1, 4, -9, math.MinInt32))
		checkBits(t, fmt.Sprintf("noise %d", n), kerneltest.NoiseInt32s(n, uint64(n)+1))
	}
}

// TestBitsEstimateKeepsTheGoLoopsEdges: an empty block never reaches
// the kernel and costs the coded-block flag, and the kernel handed one
// panics rather than reading.
func TestBitsEstimateKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	for _, levels := range [][]int32{nil, {}, make([]int32, 8)[8:]} {
		if got := BitsEstimate(levels); got != 1 {
			t.Errorf("empty block: %d bits, want 1", got)
		}
	}
	kerneltest.MustPanic(t, map[string]func(){
		"kernel, empty": func() { kernel.BitsEstimateKernel(make([]int32, 8)[8:]) },
	})
}

func TestBitsEstimateDoesNotAllocate(t *testing.T) {
	levels := kerneltest.NoiseInt32s(1024, 5, 0, 0, 0, 1, -2)
	if n := testing.AllocsPerRun(100, func() { bitsSink = BitsEstimate(levels) }); n != 0 {
		t.Errorf("BitsEstimate allocates %v times a call", n)
	}
}

// levelOf maps one fuzz byte to a level: half the bytes to 0, the rest
// to −64…63 but for 0x80, MinInt32, and 0xff, MaxInt32.
func levelOf(b byte) int32 {
	switch {
	case b < 0x80:
		return 0
	case b == 0x80:
		return math.MinInt32
	case b == 0xff:
		return math.MaxInt32
	}
	return int32(b) - 0xc0
}

// FuzzBitsEstimateKernelVsGeneric: the first two bytes are the length
// (to 1,087); every byte after them is one level (levelOf), cycled over
// the block, or sparse noise when there are none.
func FuzzBitsEstimateKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x40, 0x80, 0x00, 0x00, 0x00, 0x00, 0xff})
	f.Add([]byte{0x04, 0x00, 0x01, 0xc1, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0xbf})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 2)
		fill := kerneltest.Header(data, hdr)
		n := (hdr[0]<<8 | hdr[1]) % 1088
		levels := kerneltest.NoiseInt32s(n, uint64(n), 0, 0, 0, 1, -1, 5)
		if len(fill) > 0 {
			for i := range levels {
				levels[i] = levelOf(fill[i%len(fill)])
			}
		}
		checkBits(t, fmt.Sprintf("%d levels", n), levels)
	})
}

var bitsSink int

// clipLevels is the levels of every n×n block of kerneltest's clip
// residual, transformed and quantized at qindex 120 (CRF 30 on the AV1,
// VP9 and x264 scales), where they are 13–23 % nonzero: about as dense
// as the levels an encode at the served points estimates, 18–23 %.
func clipLevels(b *testing.B, n int) [][]int32 {
	blocks := kerneltest.ClipResiduals(b, n)
	for _, blk := range blocks {
		if err := transform.Forward(nil, blk, n, blk); err != nil {
			b.Fatal(err)
		}
		if _, err := quant.Quantize(nil, blk, 120, blk); err != nil {
			b.Fatal(err)
		}
	}
	return blocks
}

// BenchmarkBitsEstimate: the rate estimate of N levels by the kernel
// and by the Go loop, cycling over clipLevels' blocks.
func BenchmarkBitsEstimate(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		blocks, i := clipLevels(b, n), 0
		next := func() []int32 {
			if i++; i == len(blocks) {
				i = 0
			}
			return blocks[i]
		}
		kerneltest.BenchPair(b, fmt.Sprint(n*n),
			func() { bitsSink = kernel.BitsEstimateKernel(next()) },
			func() { bitsSink = kernel.BitsEstimateGeneric(next()) })
	}
}

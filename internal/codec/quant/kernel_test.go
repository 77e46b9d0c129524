package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
	"vcprof/internal/codec/transform"
)

// The walls between the AVX2 quantizer pair and its Go loops:
// kernel.QuantizeKernel and kernel.DequantizeKernel against their
// …Generic halves and against refQuantize and refDequantize.

// checkQuantKernel quantizes coefs at qi by the kernel, the Go loop and
// the reference, then dequantizes the levels, and the coefficients
// themselves read as levels, by all three. With aliased set, the
// kernel and the Go loop write over their input.
func checkQuantKernel(t *testing.T, id string, coefs []int32, qi int, aliased bool) {
	t.Helper()
	s := steps[qi]
	want := make([]int32, len(coefs))
	wnz, err := refQuantize(nil, coefs, qi, want)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quantize := map[string]func([]int32, int64, int64, []int32) int{
		"kernel": kernel.QuantizeKernel, "Go loop": kernel.QuantizeGeneric}
	for side, q := range quantize {
		in := slices.Clone(coefs)
		levels := make([]int32, len(in))
		if aliased {
			levels = in
		}
		if nz := q(in, s.inv, s.round, levels); nz != wnz || !slices.Equal(levels, want) {
			t.Fatalf("%s, quantize: %s nonzero %d levels %v, reference %d %v", id, side, nz, levels, wnz, want)
		}
	}
	dequantize := map[string]func([]int32, int64, []int32){
		"kernel": kernel.DequantizeKernel, "Go loop": kernel.DequantizeGeneric}
	for _, levels := range [][]int32{want, coefs} {
		rec := make([]int32, len(levels))
		if err := refDequantize(nil, levels, qi, rec); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for side, dq := range dequantize {
			in := slices.Clone(levels)
			got := make([]int32, len(in))
			if aliased {
				got = in
			}
			if dq(in, s.stepFx, got); !slices.Equal(got, rec) {
				t.Fatalf("%s, dequantize: %s %v, reference %v", id, side, got, rec)
			}
		}
	}
}

// TestQuantKernelMatchesGeneric covers every qindex on the reference
// wall's inputs at the encoders' sizes, and every length to 300 and
// every block area to 64×64 at a spread of qindices, on transform-range
// noise, ±2²⁰ and the int32 limits, where |MinInt32| + round needs all 32
// bits unsigned, a level reaches 1.25·2³¹ before it is truncated, and a
// dequantized product needs 51 bits before it is shifted; then the
// quantizer's whole domain at its corners.
func TestQuantKernelMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	for _, n := range []int{16, 64, 256, 1024} {
		for name, coefs := range quantBlocks(n) {
			for qi := 0; qi <= MaxQIndex; qi++ {
				checkQuantKernel(t, fmt.Sprintf("n=%d/%s/qindex=%d", n, name, qi), coefs, qi, qi%2 == 1)
			}
		}
	}
	limits := []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, 0, 1, -1, 1 << 20, -(1 << 20)}
	for _, n := range kerneltest.BlockLengths() {
		inputs := map[string][]int32{
			"dense":  kerneltest.NoiseInt32s(n, uint64(n), -4095, -700, -33, -1, 0, 0, 1, 9, 250, 4095),
			"noise":  kerneltest.NoiseInt32s(n, uint64(n)+1),
			"limits": kerneltest.NoiseInt32s(n, uint64(n)+2, limits...),
		}
		for name, coefs := range inputs {
			for _, qi := range []int{0, 1, 37, 120, 200, 255} {
				checkQuantKernel(t, fmt.Sprintf("n=%d/%s/qindex=%d", n, name, qi), coefs, qi, n%2 == 0)
			}
		}
	}
	// The corners of the assembly's domain, off quant's table: a
	// dead-zone offset so large that a zero coefficient, and so every
	// masked-off lane of a last group, quantizes to a nonzero level.
	for _, inv := range []int64{0, 1, 1 << 16, 5 << 14} {
		for _, round := range []int64{0, 1, 1<<16 + 5, 1<<30 - 1} {
			for n := 1; n <= 70; n++ {
				coefs := kerneltest.NoiseInt32s(n, uint64(n), limits...)
				got, want := make([]int32, n), make([]int32, n)
				nz, wnz := kernel.QuantizeKernel(coefs, inv, round, got), kernel.QuantizeGeneric(coefs, inv, round, want)
				if nz != wnz || !slices.Equal(got, want) {
					t.Fatalf("n=%d inv %d round %d: kernel %d %v, Go loop %d %v", n, inv, round, nz, got, wnz, want)
				}
			}
		}
	}
	// Every lane at once: MinInt32 at qindex 0 quantizes to the
	// truncation of 1.25·(2³¹ + 0), and dequantizes from MinInt32.
	checkQuantKernel(t, "MinInt32", kerneltest.Filled[int32](math.MinInt32, 64), 0, false)
	checkQuantKernel(t, "MaxInt32", kerneltest.Filled[int32](math.MaxInt32, 64), 0, true)
}

// TestQuantKernelKeepsTheGoLoopsEdges pins what the selectors do where
// the kernels must not run — empty blocks, and steps outside the
// assembly's domain, go through the Go loops — and that an output one
// value short panics on both sides.
func TestQuantKernelKeepsTheGoLoopsEdges(t *testing.T) {
	kerneltest.NeedKernel(t)
	coefs := kerneltest.NoiseInt32s(64, 3, math.MinInt32, math.MaxInt32, -5000, 0, 77)
	for _, c := range []struct{ inv, round int64 }{{5<<14 + 1, 0}, {-1, 10}, {1 << 16, 1 << 30}, {1 << 16, -1}, {1 << 40, 3}} {
		got, want := make([]int32, 64), make([]int32, 64)
		nz, wnz := kernel.Quantize(coefs, c.inv, c.round, got), kernel.QuantizeGeneric(coefs, c.inv, c.round, want)
		if nz != wnz || !slices.Equal(got, want) {
			t.Errorf("inv %d round %d: %d %v, Go loop %d %v", c.inv, c.round, nz, got, wnz, want)
		}
	}
	for _, stepFx := range []int64{1 << 31, -1<<31 - 1, 1 << 40} {
		got, want := make([]int32, 64), make([]int32, 64)
		kernel.Dequantize(coefs, stepFx, got)
		kernel.DequantizeGeneric(coefs, stepFx, want)
		if !slices.Equal(got, want) {
			t.Errorf("stepFx %d: %v, Go loop %v", stepFx, got, want)
		}
	}
	if nz := kernel.Quantize(nil, 1<<16, 0, nil); nz != 0 {
		t.Errorf("empty block: %d nonzero", nz)
	}
	kernel.Dequantize(nil, 256, nil)
	s, short := steps[100], make([]int32, 63)
	kerneltest.MustPanic(t, map[string]func(){
		"quantize kernel":    func() { kernel.QuantizeKernel(coefs, s.inv, s.round, short) },
		"quantize Go loop":   func() { kernel.QuantizeGeneric(coefs, s.inv, s.round, short) },
		"dequantize kernel":  func() { kernel.DequantizeKernel(coefs, s.stepFx, short) },
		"dequantize Go loop": func() { kernel.DequantizeGeneric(coefs, s.stepFx, short) },
	})
}

// FuzzQuantKernelVsGeneric: the first byte is the qindex, the next two
// the length (to 1,087) and whether the buffers alias; every four bytes
// after them are one little-endian coefficient, cycled over the block.
func FuzzQuantKernelVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x00, 0x21, 0x00, 0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{120, 0x04, 0x01, 0x10, 0x00, 0x00, 0x00, 0xf0, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		hdr := make([]int, 3)
		fill := kerneltest.Header(data, hdr)
		n := 1 + (hdr[1]<<7|hdr[2]>>1)%1087
		coefs := kerneltest.NoiseInt32s(n, uint64(n), -4095, -1, 0, 0, 1, 4095, math.MinInt32)
		if len(fill) >= 4 {
			for i := range coefs {
				coefs[i] = int32(binary.LittleEndian.Uint32(fill[4*i%(len(fill)-3):]))
			}
		}
		checkQuantKernel(t, fmt.Sprintf("n=%d/qindex=%d", n, hdr[0]), coefs, hdr[0], hdr[2]&1 == 1)
	})
}

// clipCoefs is the coefficients of every n×n block of kerneltest's clip
// residual.
func clipCoefs(b *testing.B, n int) [][]int32 {
	blocks := kerneltest.ClipResiduals(b, n)
	for _, blk := range blocks {
		if err := transform.Forward(nil, blk, n, blk); err != nil {
			b.Fatal(err)
		}
	}
	return blocks
}

// BenchmarkQuantizeKernel and BenchmarkDequantizeKernel: N coefficients
// quantized at qindex 120, and their levels dequantized, by the kernel
// and by the Go loop, cycling over clipCoefs' blocks (the levels of
// rdo's BenchmarkBitsEstimate).
func BenchmarkQuantizeKernel(b *testing.B) {
	s := steps[120]
	for _, n := range []int{4, 8, 16, 32} {
		blocks, levels, i := clipCoefs(b, n), make([]int32, n*n), 0
		next := func() []int32 {
			if i++; i == len(blocks) {
				i = 0
			}
			return blocks[i]
		}
		kerneltest.BenchPair(b, fmt.Sprint(n*n),
			func() { nzSink = kernel.QuantizeKernel(next(), s.inv, s.round, levels) },
			func() { nzSink = kernel.QuantizeGeneric(next(), s.inv, s.round, levels) })
	}
}

func BenchmarkDequantizeKernel(b *testing.B) {
	s := steps[120]
	for _, n := range []int{4, 8, 16, 32} {
		blocks, coefs, i := clipCoefs(b, n), make([]int32, n*n), 0
		for _, blk := range blocks {
			kernel.QuantizeGeneric(blk, s.inv, s.round, blk)
		}
		next := func() []int32 {
			if i++; i == len(blocks) {
				i = 0
			}
			return blocks[i]
		}
		kerneltest.BenchPair(b, fmt.Sprint(n*n),
			func() { kernel.DequantizeKernel(next(), s.stepFx, coefs) },
			func() { kernel.DequantizeGeneric(next(), s.stepFx, coefs) })
	}
}

package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The wall between the DCT's AVX2 routines and its Go loops:
// kernel.Transform2DKernel, pass by pass and whole, against
// kernel.Transform2DGeneric and the textbook loops of ref_test.go.

func transposed(x []float64, n int) []float64 {
	out := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			out[c*n+r] = x[r*n+c]
		}
	}
	return out
}

func float64s(block []int32) []float64 {
	x := make([]float64, len(block))
	for i, v := range block {
		x[i] = float64(v)
	}
	return x
}

// kernelBlocks adds to diffBlocks the largest magnitudes a residual
// reaches (flat and checkered) and impulses at the corners, the edges
// and the middle.
func kernelBlocks(n int) map[string][]int32 {
	blocks := diffBlocks(n)
	peak := int32(255 * n)
	checker := make([]int32, n*n)
	for i := range checker {
		checker[i] = peak * int32(1-2*((i/n+i%n)%2))
	}
	blocks["max+"] = kerneltest.Filled(peak, n*n)
	blocks["max-"] = kerneltest.Filled(-peak, n*n)
	blocks["max-checker"] = checker
	for _, at := range []int{0, 1, n - 1, n, n*n/2 + n/2, n*n - 1} {
		impulse := make([]int32, n*n)
		impulse[at] = -peak
		blocks[fmt.Sprintf("impulse@%d", at)] = impulse
	}
	return blocks
}

func sameBits(t *testing.T, id string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x (%v), Go loop %x (%v)", id, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkPasses runs the n×n block x through both transform directions,
// pass by pass, on MulRows and on RowsTimes, and compares raw bits
// after each pass: the second pass's inputs are the first's unrounded
// sums, so it sees arbitrary float64 operands.
func checkPasses(t *testing.T, id string, n int, x []float64) {
	t.Helper()
	nn := n * n
	m, mt := tableFor(n).m, tableFor(n).mt
	want1, want2 := make([]float64, nn), make([]float64, nn)
	got1, got2 := make([]float64, nn), make([]float64, nn)

	// Forward: X·Mᵀ is RowsTimes's first output transposed; M·(X·Mᵀ)
	// is its second as stored.
	kernel.RowsTimes(x, m, want1, n)
	kernel.RowsTimes(want1, m, want2, n)
	kernel.MulRows(x, mt, got1, n)
	kernel.MulRows(m, got1, got2, n)
	sameBits(t, id+"/forward/pass1", got1, transposed(want1, n))
	sameBits(t, id+"/forward/pass2", got2, want2)

	// Inverse: the Go loops work on Xᵀ with the transposed matrix and
	// transpose back; Mᵀ·X is their first output as stored, (Mᵀ·X)·M
	// their second transposed.
	kernel.RowsTimes(transposed(x, n), mt, want1, n)
	kernel.RowsTimes(want1, mt, want2, n)
	kernel.MulRows(mt, x, got1, n)
	kernel.MulRows(got1, m, got2, n)
	sameBits(t, id+"/inverse/pass1", got1, want1)
	sameBits(t, id+"/inverse/pass2", got2, transposed(want2, n))
}

// checkBlock runs the int32 block through Transform2DKernel and
// Transform2DGeneric in both directions, separate and aliased, and
// compares every rounded coefficient of each with the textbook loops of
// ref_test.go.
func checkBlock(t *testing.T, id string, n int, block []int32) {
	t.Helper()
	nn := n * n
	m, mt := tableFor(n).m, tableFor(n).mt
	for _, inverse := range []bool{false, true} {
		ref := refForward
		if inverse {
			ref = refInverse
		}
		oracle := make([]int32, nn)
		if err := ref(nil, block, n, oracle); err != nil {
			t.Fatal(err)
		}
		for _, aliased := range []bool{false, true} {
			run := func(f func(m, mt []float64, n int, src, dst []int32, s []float64, inverse bool)) []int32 {
				src := append([]int32(nil), block...)
				dst := make([]int32, nn)
				if aliased {
					dst = src
				}
				f(m, mt, n, src, dst, make([]float64, 2*nn), inverse)
				return dst
			}
			got, want := run(kernel.Transform2DKernel), run(kernel.Transform2DGeneric)
			for i := range oracle {
				if got[i] != oracle[i] || want[i] != oracle[i] {
					t.Fatalf("%s/inverse=%v/aliased=%v: coefficient %d: kernel %d, Go loop %d, oracle %d", id, inverse, aliased, i, got[i], want[i], oracle[i])
				}
			}
		}
	}
}

func TestMulRowsMatchesGeneric(t *testing.T) {
	kerneltest.NeedKernel(t)
	for _, n := range []int{4, 8, 16, 32} {
		for name, block := range kernelBlocks(n) {
			id := fmt.Sprintf("%d/%s", n, name)
			checkPasses(t, id, n, float64s(block))
			checkBlock(t, id, n, block)
		}
		// Signed zeros: (+0)+(−0) must come out +0 on both sides, and a
		// block of −0 must not leak a sign the Go loop would not.
		negZero := kerneltest.Filled(math.Copysign(0, -1), n*n)
		mixedZero := make([]float64, n*n)
		for i := 0; i < n*n; i += 3 {
			mixedZero[i] = math.Copysign(0, -1)
		}
		checkPasses(t, fmt.Sprintf("%d/-0", n), n, negZero)
		checkPasses(t, fmt.Sprintf("%d/+-0", n), n, mixedZero)
	}
}

// fuzzBlock derives a size and an n×n block from raw bytes: byte 0
// picks the size and how far the 16-bit samples are shifted up (to
// 2²⁴, so a 32×32 DC stays inside int32), the rest are the samples,
// zero once the input runs out.
func fuzzBlock(data []byte) (int, []int32) {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 4 << (data[0] & 3)
	shift := uint(data[0]>>2) % 9
	block := make([]int32, n*n)
	for i := range block {
		if 2*i+3 > len(data) {
			break
		}
		block[i] = int32(int16(binary.LittleEndian.Uint16(data[1+2*i:]))) << shift
	}
	return n, block
}

// FuzzDCTKernelVsGeneric feeds arbitrary blocks of every size through
// both implementations: raw bits after each matrix pass, rounded
// coefficients after the whole transform.
func FuzzDCTKernelVsGeneric(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff, 0x7f, 0x00, 0x80, 0x01, 0x00})
	f.Add([]byte{2 | 8<<2, 0x34, 0x12, 0xcc, 0xed, 0xff, 0xff, 0x01, 0x00})
	f.Add(append([]byte{3}, make([]byte, 2048)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		kerneltest.NeedKernel(t)
		if len(data) > 1+2*32*32 {
			return // nothing past one 32×32 block is read
		}
		n, block := fuzzBlock(data)
		checkPasses(t, "fuzz", n, float64s(block))
		checkBlock(t, "fuzz", n, block)
	})
}

// BenchmarkBlock2D: the same block through the kernel and through the
// Go loops, both directions.
func BenchmarkBlock2D(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		m, mt := tableFor(n).m, tableFor(n).mt
		src, dst, s := kernelBlocks(n)["dense"], make([]int32, n*n), make([]float64, 2*n*n)
		for _, dir := range []struct {
			name    string
			inverse bool
		}{{"forward", false}, {"inverse", true}} {
			kerneltest.BenchPair(b, fmt.Sprintf("%d/%s", n, dir.name),
				func() { kernel.Transform2DKernel(m, mt, n, src, dst, s, dir.inverse) },
				func() { kernel.Transform2DGeneric(m, mt, n, src, dst, s, dir.inverse) })
		}
	}
}

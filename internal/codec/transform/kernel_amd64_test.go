package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vcprof/internal/codec/cpuid"
)

// The wall between the AVX2 kernel and the Go loops. Both sides are
// called directly, so nothing here touches the dispatch variable, and a
// host that cannot run the kernel skips rather than comparing the Go
// loops with themselves.

func needKernel(t testing.TB) {
	t.Helper()
	if !cpuid.AVX2 {
		t.Skip("host has no AVX2 (or the OS does not save YMM state): the kernel cannot run here")
	}
}

func transposed(x []float64, n int) []float64 {
	out := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			out[c*n+r] = x[r*n+c]
		}
	}
	return out
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
// pass by pass, on mulRows and on rowsTimes, and compares raw bits
// after each pass: the second pass's inputs are the first's unrounded
// sums, so it sees arbitrary float64 operands.
func checkPasses(t *testing.T, id string, n int, x []float64) {
	t.Helper()
	nn := n * n
	tb := tableFor(n)
	want1, want2 := make([]float64, nn), make([]float64, nn)
	got1, got2 := make([]float64, nn), make([]float64, nn)

	// Forward: X·Mᵀ is rowsTimes's first output transposed; M·(X·Mᵀ)
	// is its second as stored.
	rowsTimes(x, tb.m, want1, n)
	rowsTimes(want1, tb.m, want2, n)
	mulRows(&x[0], &tb.mt[0], &got1[0], n)
	mulRows(&tb.m[0], &got1[0], &got2[0], n)
	sameBits(t, id+"/forward/pass1", got1, transposed(want1, n))
	sameBits(t, id+"/forward/pass2", got2, want2)

	// Inverse: the Go loops work on Xᵀ with the transposed matrix and
	// transpose back; Mᵀ·X is their first output as stored, (Mᵀ·X)·M
	// their second transposed.
	rowsTimes(transposed(x, n), tb.mt, want1, n)
	rowsTimes(want1, tb.mt, want2, n)
	mulRows(&tb.mt[0], &x[0], &got1[0], n)
	mulRows(&got1[0], &tb.m[0], &got2[0], n)
	sameBits(t, id+"/inverse/pass1", got1, want1)
	sameBits(t, id+"/inverse/pass2", got2, transposed(want2, n))
}

// checkBlock runs the int32 block through kernel2D and transform2D in
// both directions, separate and aliased, and compares every rounded
// coefficient of each with the textbook loops of ref_test.go.
func checkBlock(t *testing.T, id string, n int, block []int32) {
	t.Helper()
	nn := n * n
	tb := tableFor(n)
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
			run := func(f func(*dctTable, int, []int32, []int32, []float64, bool)) []int32 {
				src := append([]int32(nil), block...)
				dst := make([]int32, nn)
				if aliased {
					dst = src
				}
				f(tb, n, src, dst, make([]float64, 2*nn), inverse)
				return dst
			}
			got, want := run(kernel2D), run(transform2D)
			for i := range oracle {
				if got[i] != oracle[i] || want[i] != oracle[i] {
					t.Fatalf("%s/inverse=%v/aliased=%v: coefficient %d: kernel %d, Go loop %d, oracle %d", id, inverse, aliased, i, got[i], want[i], oracle[i])
				}
			}
		}
	}
}

func TestMulRowsMatchesGeneric(t *testing.T) {
	needKernel(t)
	for _, n := range []int{4, 8, 16, 32} {
		blocks := diffBlocks(n)
		fill := func(f func(i int) int32) []int32 {
			b := make([]int32, n*n)
			for i := range b {
				b[i] = f(i)
			}
			return b
		}
		peak := int32(255 * n)
		blocks["max+"] = fill(func(int) int32 { return peak })
		blocks["max-"] = fill(func(int) int32 { return -peak })
		blocks["max-checker"] = fill(func(i int) int32 {
			if (i/n+i%n)%2 == 0 {
				return peak
			}
			return -peak
		})
		for _, at := range []int{0, 1, n - 1, n, n*n/2 + n/2, n*n - 1} {
			at := at
			blocks[fmt.Sprintf("impulse@%d", at)] = fill(func(i int) int32 {
				if i == at {
					return -peak
				}
				return 0
			})
		}
		for name, block := range blocks {
			id := fmt.Sprintf("%d/%s", n, name)
			x := make([]float64, n*n)
			for i, v := range block {
				x[i] = float64(v)
			}
			checkPasses(t, id, n, x)
			checkBlock(t, id, n, block)
		}
		// Signed zeros: (+0)+(−0) must come out +0 on both sides, and a
		// block of −0 must not leak a sign the Go loop would not.
		negZero := make([]float64, n*n)
		mixedZero := make([]float64, n*n)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
			if i%3 == 0 {
				mixedZero[i] = math.Copysign(0, -1)
			}
		}
		checkPasses(t, fmt.Sprintf("%d/-0", n), n, negZero)
		checkPasses(t, fmt.Sprintf("%d/+-0", n), n, mixedZero)
	}
}

// TestRoundNarrowMatchesMathRound is the proof step 3 of the kernel
// rests on: the vector round-half-away-and-convert equals
// int32(math.Round(v)) on the values where a shortcut would not — the
// halves, the neighbours of the halves, signed zero, the int32 edges,
// magnitudes past 2⁵² where every float64 is an integer — and on a
// seeded sweep of every binade a coefficient can fall in.
func TestRoundNarrowMatchesMathRound(t *testing.T) {
	needKernel(t)
	vals := []float64{0, 0.25, 0.5, 1, 1.5, 2.5, 3.5, 1e-320, 5e-324, 0.75, 1 << 20, 1<<20 + 0.5,
		math.MaxInt32, math.MaxInt32 - 0.5, math.MaxInt32 + 0.5, -math.MinInt32, -math.MinInt32 + 0.5, 1 << 40, 1<<40 + 0.5, 1 << 62}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for k := -3.0; k <= 3; k++ {
		vals = append(vals, 1<<52+k, 1<<51+k/2, 1<<53+2*k)
	}
	s := uint64(0x9E3779B97F4A7C15)
	for e := -4; e < 56; e++ {
		for i := 0; i < 64; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			vals = append(vals, math.Ldexp(1+float64(s>>11)/(1<<53), e))
			// A half-integer of this binade, and its two neighbours.
			h := math.Trunc(math.Ldexp(1+float64(s>>40)/(1<<24), e)) + 0.5
			vals = append(vals, h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)))
		}
	}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, -v)
	}
	for len(vals)%4 != 0 {
		vals = append(vals, 0)
	}
	got := make([]int32, len(vals))
	roundNarrow(&vals[0], &got[0], len(vals))
	for i, v := range vals {
		if want := int32(math.Round(v)); got[i] != want {
			t.Fatalf("roundNarrow(%v [%x]) = %d, int32(math.Round) = %d", v, math.Float64bits(v), got[i], want)
		}
	}

	ints := []int32{0, 1, -1, 255, -255, math.MaxInt32, math.MinInt32, 1 << 24, -(1<<24 + 1), 1<<30 + 1, 7, -8}
	wide := make([]float64, len(ints))
	widen(&ints[0], &wide[0], len(ints))
	for i, v := range ints {
		if wide[i] != float64(v) {
			t.Fatalf("widen(%d) = %v", v, wide[i])
		}
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
		needKernel(t)
		if len(data) > 1+2*32*32 {
			return // nothing past one 32×32 block is read
		}
		n, block := fuzzBlock(data)
		x := make([]float64, n*n)
		for i, v := range block {
			x[i] = float64(v)
		}
		checkPasses(t, "fuzz", n, x)
		checkBlock(t, "fuzz", n, block)
	})
}

// BenchmarkBlock2D shows the ratio `make bench` records: the same block
// through the kernel and through the Go loops, both directions.
func BenchmarkBlock2D(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		tb := tableFor(n)
		src, dst, s := diffBlocks(n)["dense"], make([]int32, n*n), make([]float64, 2*n*n)
		for _, dir := range []struct {
			name    string
			inverse bool
		}{{"forward", false}, {"inverse", true}} {
			b.Run(fmt.Sprintf("%d/%s/kernel", n, dir.name), func(b *testing.B) {
				needKernel(b)
				for i := 0; i < b.N; i++ {
					kernel2D(tb, n, src, dst, s, dir.inverse)
				}
			})
			b.Run(fmt.Sprintf("%d/%s/generic", n, dir.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					transform2D(tb, n, src, dst, s, dir.inverse)
				}
			})
		}
	}
}

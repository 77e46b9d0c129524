// Package kerneltest holds the helpers of the walls between each
// kernel.…Kernel and its kernel.…Generic, which live in the packages
// that call the selectors: seeded inputs, the skip on hosts without
// AVX2, the panic check, guard pages and the /kernel and /generic
// benchmark pair. Only tests import it.
package kerneltest

import (
	"testing"

	"vcprof/internal/codec/kernel"
)

// NeedKernel skips on a host that cannot run the assembly, rather than
// comparing the Go loops with themselves.
func NeedKernel(t testing.TB) {
	t.Helper()
	if !kernel.AVX2 {
		t.Skip("host has no AVX2 (or the OS does not save YMM state): the kernel cannot run here")
	}
}

// Next steps the seeded generator every test input is drawn from.
func Next(s *uint64) uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return *s
}

// NoiseBytes and NoiseInt32s are n seeded samples; an int32 sample is
// drawn from the given values, or from the whole range when none are
// given.
func NoiseBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(Next(&seed) >> 56)
	}
	return b
}

func NoiseInt32s(n int, seed uint64, vs ...int32) []int32 {
	b := make([]int32, n)
	for i := range b {
		if s := Next(&seed); len(vs) == 0 {
			b[i] = int32(s >> 32)
		} else {
			b[i] = vs[(s>>33)%uint64(len(vs))]
		}
	}
	return b
}

// Filled is n copies of v.
func Filled[T any](v T, n int) []T {
	b := make([]T, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// BlockLengths is every length to 300 (each mix of 32-, 8- and
// 1-sample steps) and the block areas the encoders work on.
func BlockLengths() []int {
	var ns []int
	for n := 1; n <= 300; n++ {
		ns = append(ns, n)
	}
	for _, w := range []int{4, 8, 16, 32, 64} {
		for _, h := range []int{4, 8, 16, 32, 64} {
			ns = append(ns, w*h)
		}
	}
	return ns
}

// Header reads the first len(hdr) bytes of a fuzz input as small ints
// (missing ones are 0) and returns the rest.
func Header(data []byte, hdr []int) []byte {
	for i := range hdr {
		if i < len(data) {
			hdr[i] = int(data[i])
		}
	}
	return data[min(len(data), len(hdr)):]
}

// MustPanic fails for each case that returns: a read or write past a
// slice must panic on both sides of a twin, never reach the assembly.
func MustPanic(t *testing.T, cases map[string]func()) {
	t.Helper()
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a read or write one sample out did not panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchPair runs one /kernel and one /generic sub-benchmark under name:
// the ratio `make bench` records.
func BenchPair(b *testing.B, name string, kernel, generic func()) {
	b.Run(name+"/kernel", func(b *testing.B) {
		NeedKernel(b)
		for i := 0; i < b.N; i++ {
			kernel()
		}
	})
	b.Run(name+"/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			generic()
		}
	})
}

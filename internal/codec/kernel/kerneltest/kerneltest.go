// Package kerneltest holds the helpers of the walls between each
// kernel.…Kernel and its kernel.…Generic, which live in the packages
// that call the selectors: seeded inputs, a clip's residual blocks, the
// skip on hosts without AVX2, the panic check, guard pages and the
// /kernel and /generic benchmark pair. Only tests import it.
package kerneltest

import (
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/video"
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

// ClipResiduals is every n×n block of the luma residual of a
// zero-motion prediction: frame 1 of game1 at 1/4 scale less frame 0.
// Through the transform and the quantizer it gives levels shaped like an
// encoder's, mostly zero and small where not, on which a branch on the
// level predicts as it does in an encode; uniform noise would not.
func ClipResiduals(tb testing.TB, n int) [][]int32 {
	tb.Helper()
	meta, err := video.LookupClip("game1")
	if err != nil {
		tb.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 4})
	if err != nil {
		tb.Fatal(err)
	}
	prev, cur := clip.Frames[0].Y, clip.Frames[1].Y
	var blocks [][]int32
	for y := 0; y+n <= cur.H; y += n {
		for x := 0; x+n <= cur.W; x += n {
			b := make([]int32, 0, n*n)
			for j := y; j < y+n; j++ {
				for i := x; i < x+n; i++ {
					b = append(b, int32(cur.Pix[j*cur.Stride+i])-int32(prev.Pix[j*prev.Stride+i]))
				}
			}
			blocks = append(blocks, b)
		}
	}
	return blocks
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

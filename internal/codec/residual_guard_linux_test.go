package codec

import (
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The guard-page walls: each kernel runs on inputs and outputs that end
// or begin at an unmapped page (kerneltest.GuardedPage), so one sample
// read or written too many faults, which a comparison of outputs cannot
// show.

func TestResidualKernelTouchesOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	src, out := kerneltest.GuardedPage(t), kerneltest.GuardedInt32s(t)
	for n := 1; n <= 300; n++ {
		for _, cur := range kerneltest.Edges(src, n) {
			for _, dst := range kerneltest.Edges(out, n) {
				kernel.ResidualKernel(cur, src[100:], dst)
				want := make([]int32, n)
				kernel.ResidualGeneric(cur, src[100:], want)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("%d samples: sample %d is %d, Go loop %d", n, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

func TestTileSSEKernelReadsOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	data, other := kerneltest.GuardedInt32s(t), kerneltest.NoiseInt32s(80*80, 11)
	for w := 1; w <= 70; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				for _, a := range kerneltest.Edges(data, (h-1)*stride+w) {
					checkTileSSE(t, a, stride, other, 80, w, h)
					checkTileSSE(t, other, 79, a, stride, w, h)
				}
			}
		}
	}
}

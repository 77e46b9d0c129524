package quant

import (
	"slices"
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// TestQuantKernelTouchesOnlyTheBlock runs the quantizer pair on inputs
// and outputs that end or begin at an unmapped page
// (kerneltest.GuardedPage), so one value read or written past the
// block, the masked tail's included, faults.
func TestQuantKernelTouchesOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	src, out := kerneltest.GuardedInt32s(t), kerneltest.GuardedInt32s(t)
	s := steps[60]
	for n := 1; n <= 300; n++ {
		for _, in := range kerneltest.Edges(src, n) {
			for _, dst := range kerneltest.Edges(out, n) {
				want := make([]int32, n)
				wnz := kernel.QuantizeGeneric(in, s.inv, s.round, want)
				if nz := kernel.QuantizeKernel(in, s.inv, s.round, dst); nz != wnz || !slices.Equal(dst, want) {
					t.Fatalf("%d values: quantize %d %v, Go loop %d %v", n, nz, dst, wnz, want)
				}
				kernel.DequantizeGeneric(in, s.stepFx, want)
				if kernel.DequantizeKernel(in, s.stepFx, dst); !slices.Equal(dst, want) {
					t.Fatalf("%d values: dequantize %v, Go loop %v", n, dst, want)
				}
			}
		}
	}
}

package rdo

import (
	"fmt"
	"testing"

	"vcprof/internal/codec/kernel/kerneltest"
)

// TestBitsEstimateKernelReadsOnlyTheBlock runs the rate estimate on
// blocks that end or begin at an unmapped page (kerneltest.GuardedPage),
// so one level read past the block, the masked tail's included, faults.
func TestBitsEstimateKernelReadsOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	page := kerneltest.GuardedInt32s(t)
	copy(page, kerneltest.NoiseInt32s(len(page), 12, 0, 0, 0, 0, 1, -1, 3))
	for n := 1; n <= 300; n++ {
		for _, levels := range kerneltest.Edges(page, n) {
			checkBits(t, fmt.Sprintf("%d levels at a page edge", n), levels)
		}
	}
}

package motion

import (
	"testing"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/codec/kernel/kerneltest"
)

// The guard-page walls: each kernel runs on inputs and outputs that end
// or begin at an unmapped page (kerneltest.GuardedPage), so one sample
// read or written too many faults, which a comparison of outputs cannot
// show.

func TestSADKernelReadsOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	data, other := kerneltest.GuardedPage(t), noisePlane(160, 8, 160, 9)
	for w := 1; w <= 130; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				for _, pix := range kerneltest.Edges(data, (h-1)*stride+w) {
					guarded := plane{pix, w, h, stride}
					checkSAD(t, guarded, 0, 0, other, 7, 1, w, h)
					checkSAD(t, other, 3, 2, guarded, 0, 0, w, h)
				}
			}
		}
	}
}

// TestSADx4KernelReadsOnlyTheBlocks puts the current block, and then
// each reference position in turn, against either guard page, with the
// other positions elsewhere in the page (or repeated past n).
func TestSADx4KernelReadsOnlyTheBlocks(t *testing.T) {
	kerneltest.NeedKernel(t)
	data, other := kerneltest.GuardedPage(t), noisePlane(160, 8, 160, 29)
	for w := 1; w <= 70; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				span := (h-1)*stride + w // one block's bytes
				for _, pix := range kerneltest.Edges(data, span) {
					guarded := plane{pix, w, h, stride}
					checkSADx4(t, guarded, 0, 0, other, [4]int{7, 0, 3, 9}, [4]int{1, 0, 2, 1}, 4, w, h)
				}
				// The reference is the whole page: position 0 is its
				// first byte, the block at len-span its last.
				ref := plane{data, stride, len(data) / stride, stride}
				edges := [2]int{0, len(data) - span}
				for n := 1; n <= 4; n++ {
					for k := 0; k < n; k++ {
						for _, o := range edges {
							xs := [4]int{100, 200, 300, 400}
							xs[k] = o
							checkSADx4(t, other, 3, 2, ref, xs, [4]int{}, n, w, h)
						}
					}
				}
			}
		}
	}
}

func TestInterpKernelsTouchOnlyTheBlock(t *testing.T) {
	kerneltest.NeedKernel(t)
	data, out := kerneltest.GuardedPage(t), kerneltest.GuardedPage(t)
	for _, sub := range halfPhases {
		for w := 1; w <= 70; w++ {
			for _, h := range []int{1, 2, 3} {
				for _, stride := range []int{w + 1, w + 4} {
					// The last tap: one right of, one row below or
					// diagonally past the block's last pixel.
					for _, pix := range kerneltest.Edges(data, (h-1+sub.dy)*stride+w+sub.dx) {
						ref := plane{pix, w + sub.dx, h + sub.dy, stride}
						for _, dst := range kerneltest.Edges(out, w*h) {
							kernel.InterpKernel(ref.pix, stride, 0, 0, sub.dx, sub.dy, w, h, dst)
						}
						checkInterp(t, ref, 0, 0, sub, w, h)
					}
				}
			}
		}
	}
}

func TestBufferSADReadsOnlyTheBuffers(t *testing.T) {
	kerneltest.NeedKernel(t)
	data := kerneltest.GuardedPage(t)
	for n := 1; n <= 300; n++ {
		for _, a := range kerneltest.Edges(data, n) {
			if got, want := kernel.BufferSADKernel(a, data[1000:], n), kernel.BufferSADGeneric(a, data[1000:], n); got != want {
				t.Fatalf("%d bytes: kernel %d, Go loop %d", n, got, want)
			}
		}
	}
}

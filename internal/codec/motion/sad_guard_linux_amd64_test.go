package motion

import (
	"syscall"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/video"
)

// TestSADKernelReadsOnlyTheBlock runs the kernel on blocks that touch
// an unmapped page on one side: one byte read before the first row or
// past the last faults, which a comparison of sums cannot show.
func TestSADKernelReadsOnlyTheBlock(t *testing.T) {
	needKernel(t)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[2*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	data := mem[page : 2*page]
	for i := range data {
		data[i] = byte(i * 37)
	}
	other := noisePlane(160, 8, 160, 9)
	for w := 1; w <= 130; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				size := (h-1)*stride + w
				for _, pix := range [][]byte{data[:size:size], data[page-size:]} {
					guarded := codec.Surface{Plane: &video.Plane{W: w, H: h, Stride: stride, Pix: pix}}
					checkSAD(t, guarded, 0, 0, other, 7, 1, w, h)
					checkSAD(t, other, 3, 2, guarded, 0, 0, w, h)
				}
			}
		}
	}
}

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
	data := guardedPage(t)
	other := noisePlane(160, 8, 160, 9)
	for w := 1; w <= 130; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				size := (h-1)*stride + w
				for _, pix := range [][]byte{data[:size:size], data[len(data)-size:]} {
					guarded := codec.Surface{Plane: &video.Plane{W: w, H: h, Stride: stride, Pix: pix}}
					checkSAD(t, guarded, 0, 0, other, 7, 1, w, h)
					checkSAD(t, other, 3, 2, guarded, 0, 0, w, h)
				}
			}
		}
	}
}

// guardedPage maps a page between two unmapped ones, so one byte read
// or written before or past it faults, and fills it with a pattern.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:page], mem[2*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	data := mem[page : 2*page]
	for i := range data {
		data[i] = byte(i * 37)
	}
	return data
}

// TestInterpKernelsTouchOnlyTheBlock interpolates from planes that end
// or begin at an unmapped page and writes outputs that do: reading one
// tap too many, or writing one byte too many, faults, which a
// comparison of outputs cannot show.
func TestInterpKernelsTouchOnlyTheBlock(t *testing.T) {
	needKernel(t)
	data := guardedPage(t)
	out := guardedPage(t)
	for _, sub := range halfPhases {
		for w := 1; w <= 70; w++ {
			for _, h := range []int{1, 2, 3} {
				for _, stride := range []int{w + 1, w + 4} {
					// The last tap: one right of, one row below or
					// diagonally past the block's last pixel.
					size := (h-1+int(sub.Y))*stride + w + int(sub.X)
					for _, pix := range [][]byte{data[:size:size], data[len(data)-size:]} {
						ref := codec.Surface{Plane: &video.Plane{W: w + int(sub.X), H: h + int(sub.Y), Stride: stride, Pix: pix}}
						for _, dst := range [][]byte{out[:w*h], out[len(out)-w*h:]} {
							interpKernel(ref, 0, 0, sub, w, h, dst)
						}
						checkInterp(t, ref, 0, 0, sub, w, h)
					}
				}
			}
		}
	}
}

// TestBufferSADReadsOnlyTheBuffers sums buffers that end or begin at an
// unmapped page.
func TestBufferSADReadsOnlyTheBuffers(t *testing.T) {
	needKernel(t)
	data := guardedPage(t)
	for n := 1; n <= 300; n++ {
		for _, a := range [][]byte{data[:n:n], data[len(data)-n:]} {
			if got, want := bufferSADKernel(a, data[1000:], n), bufferSADGeneric(a, data[1000:], n); got != want {
				t.Fatalf("%d bytes: kernel %d, Go loop %d", n, got, want)
			}
		}
	}
}

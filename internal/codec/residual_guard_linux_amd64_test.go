package codec

import (
	"syscall"
	"testing"
	"unsafe"
)

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

// guardedInt32s views a guarded page as int32 samples.
func guardedInt32s(t *testing.T) []int32 {
	data := guardedPage(t)
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[0])), len(data)/4)
}

// TestResidualKernelTouchesOnlyTheBlock subtracts sources that end or
// begin at an unmapped page into outputs that do: one sample read or
// written too many faults, which a comparison of outputs cannot show.
func TestResidualKernelTouchesOnlyTheBlock(t *testing.T) {
	needKernel(t)
	src, out := guardedPage(t), guardedInt32s(t)
	for n := 1; n <= 300; n++ {
		for _, cur := range [][]byte{src[:n:n], src[len(src)-n:]} {
			for _, dst := range [][]int32{out[:n:n], out[len(out)-n:]} {
				residualKernel(cur, src[100:], dst)
				want := make([]int32, n)
				residualGeneric(cur, src[100:], want)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("%d samples: sample %d is %d, Go loop %d", n, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestTileSSEKernelReadsOnlyTheBlock sums blocks that end or begin at
// an unmapped page.
func TestTileSSEKernelReadsOnlyTheBlock(t *testing.T) {
	needKernel(t)
	data, other := guardedInt32s(t), noiseInt32s(80*80, 11)
	for w := 1; w <= 70; w++ {
		for _, h := range []int{1, 2, 3} {
			for _, stride := range []int{w, w + 3} {
				size := (h-1)*stride + w
				for _, a := range [][]int32{data[:size:size], data[len(data)-size:]} {
					checkTileSSE(t, a, stride, other, 80, w, h)
					checkTileSSE(t, other, 79, a, stride, w, h)
				}
			}
		}
	}
}

package kerneltest

import (
	"syscall"
	"testing"
	"unsafe"
)

// The guard-page walls run each kernel on inputs and outputs that end
// or begin at an unmapped page, so one sample read or written too many
// faults, which a comparison of outputs cannot show.

// GuardedPage maps a page between two unmapped ones and fills it with
// a pattern.
func GuardedPage(t *testing.T) []byte {
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

// GuardedInt32s views a guarded page as int32 samples.
func GuardedInt32s(t *testing.T) []int32 {
	data := GuardedPage(t)
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[0])), len(data)/4)
}

// Edges is the first and the last n elements of a guarded page: a
// block touching the unmapped page before it, and one touching the
// page after.
func Edges[T any](page []T, n int) [][]T { return [][]T{page[:n:n], page[len(page)-n:]} }

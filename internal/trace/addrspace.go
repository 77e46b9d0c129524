package trace

import (
	"fmt"
	"sync"
)

// AddressSpace hands out non-overlapping virtual address ranges for the
// buffers an encoder touches (frame planes, reference pictures, block
// scratch). Kernels report loads and stores at base+offset addresses so
// the cache simulator sees the same spatial locality the native encoder
// would exhibit: long unit-stride scans of frame-sized buffers plus
// small hot scratch regions.
type AddressSpace struct {
	mu     sync.Mutex
	next   uint64
	byName map[string]Region
}

// Region is an allocated virtual range.
type Region struct {
	Base uint64
	Size uint64
}

// End returns one past the last byte of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// heapBase separates data from the synthetic code segment used by Site.
const heapBase = 0x10000000

// ScratchBase is a shared virtual region for small, hot kernel scratch
// buffers (transform tiles, quantizer levels) whose exact placement does
// not matter: they are L1-resident in any realistic run. Kernels that do
// not receive a caller buffer address report scratch traffic here.
const ScratchBase = 0x08000000

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: heapBase, byName: make(map[string]Region)}
}

// Reset forgets every region, so that the space hands out the same
// addresses, in the same order, as a new one; a recycled encode working
// set (DESIGN.md §4) keeps its space and resets it per encode.
func (a *AddressSpace) Reset() {
	a.mu.Lock()
	clear(a.byName)
	a.next = heapBase
	a.mu.Unlock()
}

// Alloc reserves size bytes aligned to 64 (a cache line) under the given
// name and returns the region. Allocating an existing name returns the
// prior region when the size matches, and an error otherwise; encoders
// allocate plane buffers once per stream and reuse them per frame.
func (a *AddressSpace) Alloc(name string, size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("trace: invalid allocation %q size %d", name, size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.byName[name]; ok {
		if r.Size != uint64(size) {
			return Region{}, fmt.Errorf("trace: allocation %q re-requested with size %d, have %d", name, size, r.Size)
		}
		return r, nil
	}
	const align = 64
	base := (a.next + align - 1) &^ (align - 1)
	r := Region{Base: base, Size: uint64(size)}
	// A guard gap between regions avoids false sharing of cache lines
	// between unrelated buffers.
	a.next = r.End() + align
	a.byName[name] = r
	return r, nil
}

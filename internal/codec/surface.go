// Package codec provides the shared toolkit the five encoder models are
// built from: instrumented pixel surfaces, block geometry, and the
// sub-packages transform, entropy, intra, motion, quant and rdo.
package codec

import (
	"fmt"

	"vcprof/internal/codec/kernel"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// Surface couples a pixel plane with the virtual base address its pixels
// occupy in the traced address space, so kernels can report the memory
// accesses they perform against it.
type Surface struct {
	*video.Plane
	VBase uint64
}

// WrapSurface binds an existing plane to an address-space region.
func WrapSurface(as *trace.AddressSpace, name string, p *video.Plane) (Surface, error) {
	if p == nil {
		return Surface{}, fmt.Errorf("codec: nil plane for surface %q", name)
	}
	r, err := as.Alloc(name, p.Stride*p.H)
	if err != nil {
		return Surface{}, err
	}
	return Surface{Plane: p, VBase: r.Base}, nil
}

// VAddr returns the virtual address of pixel (x, y).
func (s Surface) VAddr(x, y int) uint64 {
	return s.VBase + uint64(y*s.Stride+x)
}

// BlockSize is a square coding block side length.
type BlockSize int

// Supported block sizes.
const (
	Block4  BlockSize = 4
	Block8  BlockSize = 8
	Block16 BlockSize = 16
	Block32 BlockSize = 32
	Block64 BlockSize = 64
)

// Valid reports whether the block size is one the toolkit supports.
func (b BlockSize) Valid() bool {
	switch b {
	case Block4, Block8, Block16, Block32, Block64:
		return true
	}
	return false
}

// MV is a motion vector in full-pel units.
type MV struct {
	X, Y int16
}

// Add returns m+o with saturation left to the caller's search bounds.
func (m MV) Add(o MV) MV { return MV{m.X + o.X, m.Y + o.Y} }

// Residual computes dst = cur − pred for a w×h block (row-major, stride
// w) and reports the vector arithmetic to tc. cur and pred must each
// hold w*h samples.
func Residual(tc *trace.Ctx, cur, pred []byte, w, h int, dst []int32) {
	n := w * h
	dst, cur, pred = dst[:n], cur[:n], pred[:n]
	kernel.Residual(cur, pred, dst)
	// Two source loads and one widened store per 8 samples, one 8-wide
	// subtract; the row loop is 4x unrolled.
	tc.Loads(pcResidualLoop, trace.ScratchBase+0x3000, n/4+2, 8, 8)
	tc.Stores(pcResidualLoop, trace.ScratchBase+0x3800, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/8+1)
	tc.Op(trace.OpOther, h/2+1)
	tc.Loop(pcResidualLoop, (h+3)/4)
}

// TileSSE returns the sum of squared differences of two w×h int32
// blocks whose rows start astride and bstride samples apart: each
// difference is taken in int32, wrapping as a[i]−b[i] does, then
// squared and summed in int64. It reports nothing; the caller charges
// its own vector work.
func TileSSE(a []int32, astride int, b []int32, bstride, w, h int) int64 {
	return kernel.TileSSE(a, astride, b, bstride, w, h)
}

// Reconstruct computes dst = clamp(pred + res) for a w×h block.
func Reconstruct(tc *trace.Ctx, pred []byte, res []int32, w, h int, dst []byte) {
	n := w * h
	dst, pred, res = dst[:n], pred[:n], res[:n]
	for i := range dst {
		dst[i] = byte(min(max(int32(pred[i])+res[i], 0), 255)) // compiles to CMOVs
	}
	tc.Loads(pcReconLoop, trace.ScratchBase+0x3000, n/4+2, 8, 8)
	tc.Stores(pcReconLoop, trace.ScratchBase+0x3800, n/4+2, 8, 8)
	tc.Op(trace.OpAVX, n/4+1)
	tc.Op(trace.OpOther, h/2+1)
	tc.Loop(pcReconLoop, (h+3)/4)
}

var (
	pcResidualLoop = trace.Site("codec.Residual/rowloop")
	pcReconLoop    = trace.Site("codec.Reconstruct/rowloop")
)

package motion

import (
	"fmt"

	"vcprof/internal/codec"
	"vcprof/internal/codec/kernel"
	"vcprof/internal/trace"
)

// Half-pel motion compensation: the sub-sample interpolation step every
// encoder family of the paper performs. The filter is the classic
// bilinear half-sample kernel (VP8's simple profile): averaging the two
// (or four) nearest integer samples with rounding.

var (
	pcInterp = trace.Sites("motion.Interp/rowloop", 6)
	fnInterp = trace.Func("motion.InterpHalfPel")
)

// SubPel identifies a half-sample phase: 0 = integer, 1 = half.
type SubPel struct {
	X, Y uint8
}

// Valid reports whether the phase components are 0 or 1.
func (s SubPel) Valid() bool { return s.X <= 1 && s.Y <= 1 }

// InterpHalfPel writes the w×h prediction at integer position (x, y)
// plus the half-pel phase into dst (row-major, stride w). Reads extend
// one sample right/below for half phases, so the caller must ensure
// x+w+1 <= ref.W and y+h+1 <= ref.H when a phase component is set.
func InterpHalfPel(tc *trace.Ctx, ref codec.Surface, x, y int, sub SubPel, w, h int, dst []byte) error {
	defer tc.EndStage(tc.BeginStage(trace.StageMotion))
	if !sub.Valid() {
		return fmt.Errorf("motion: invalid sub-pel phase %+v", sub)
	}
	needX, needY := w, h
	if sub.X == 1 {
		needX++
	}
	if sub.Y == 1 {
		needY++
	}
	if x < 0 || y < 0 || x+needX > ref.W || y+needY > ref.H {
		return fmt.Errorf("motion: half-pel read %d,%d %dx%d outside %dx%d", x, y, needX, needY, ref.W, ref.H)
	}
	switch {
	case sub.X == 0 && sub.Y == 0:
		for j := 0; j < h; j++ {
			copy(dst[j*w:(j+1)*w], ref.Pix[(y+j)*ref.Stride+x:(y+j)*ref.Stride+x+w])
		}
	default:
		kernel.InterpHalf(ref.Pix, ref.Stride, x, y, int(sub.X), int(sub.Y), w, h, dst)
	}
	if tc != nil {
		tc.Enter(fnInterp)
		sc := sizeClass(w)
		vec := (w + 15) / 16
		taps := 1 + int(sub.X) + int(sub.Y)
		tc.Loads(pcInterp[sc], ref.VAddr(x, y), h*vec*taps, ref.Stride, 16)
		tc.Stores(pcInterp[sc], trace.ScratchBase+0x7800, h*vec, 16, 16)
		tc.Op(trace.OpAVX, h*((w+15)/16)*taps+2)
		tc.Op(trace.OpOther, h/2+2)
		tc.Loop(pcInterp[sc], (h+3)/4)
		tc.Leave()
	}
	return nil
}

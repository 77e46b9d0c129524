// Package video provides YUV 4:2:0 frame types, a procedural clip
// generator parameterized by resolution, frame rate and entropy, and the
// vbench input catalog used throughout the paper's experiments.
//
// The paper uses the 15 five-second clips of vbench (Table 1). Those
// clips are proprietary media; this package substitutes a deterministic
// procedural generator whose output is controlled by the same three
// properties vbench documents for each clip — resolution, frame rate and
// entropy — so that encoder effort ordering across clips is preserved.
package video

import (
	"errors"
	"fmt"
)

// Plane is a single 8-bit sample plane (luma or chroma).
type Plane struct {
	W, H   int
	Stride int
	Pix    []byte
}

// NewPlane allocates a zeroed plane of the given dimensions.
func NewPlane(w, h int) *Plane {
	return &Plane{W: w, H: h, Stride: w, Pix: make([]byte, w*h)}
}

// Row returns the pixel row at y as a slice of length W.
func (p *Plane) Row(y int) []byte { return p.Pix[y*p.Stride : y*p.Stride+p.W] }

// Frame is a YUV 4:2:0 picture.
type Frame struct {
	Y, U, V *Plane
	// Index is the display order of the frame within its clip.
	Index int
}

// NewFrame allocates a YUV 4:2:0 frame. Width and height must be even.
func NewFrame(w, h int) (*Frame, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("video: invalid frame size %dx%d", w, h)
	}
	if w%2 != 0 || h%2 != 0 {
		return nil, fmt.Errorf("video: frame size %dx%d not even (4:2:0 requires even dimensions)", w, h)
	}
	return &Frame{
		Y: NewPlane(w, h),
		U: NewPlane(w/2, h/2),
		V: NewPlane(w/2, h/2),
	}, nil
}

// Width returns the luma width.
func (f *Frame) Width() int { return f.Y.W }

// Height returns the luma height.
func (f *Frame) Height() int { return f.Y.H }

// Clip is an in-memory video sequence plus its catalog metadata.
type Clip struct {
	Meta   ClipMeta
	Frames []*Frame
}

// ErrNoFrames is returned by operations that need at least one frame.
var ErrNoFrames = errors.New("video: clip has no frames")

// Validate checks structural consistency of the clip.
func (c *Clip) Validate() error {
	if len(c.Frames) == 0 {
		return ErrNoFrames
	}
	w, h := c.Frames[0].Width(), c.Frames[0].Height()
	for i, f := range c.Frames {
		if f.Width() != w || f.Height() != h {
			return fmt.Errorf("video: frame %d size %dx%d differs from %dx%d", i, f.Width(), f.Height(), w, h)
		}
	}
	return nil
}

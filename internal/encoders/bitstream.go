package encoders

import (
	"encoding/binary"
	"fmt"
)

// Container format produced when Options.KeepBitstream is set and
// consumed by DecodeBitstream. Little-endian throughout.
//
//	sequence header:
//	  magic "VCBS" | version u8 | family-name len u8 + bytes |
//	  width u16 | height u16 | frames u16 | qindex u8 | refs u8 |
//	  tools u8 (bit0 = half-pel MC) | shapeCount u8 + shape values |
//	  sbSize u8
//	per frame:
//	  flags u8 (bit0 = keyframe) | qindex u8 | segCount u16 |
//	  per segment: row0 u8 | row1 u8 | col0 u8 | col1 u8 | length u32
//	  then the segment payloads in slot order.
const (
	bitstreamMagic   = "VCBS"
	bitstreamVersion = 3
)

// assembleBitstream serializes the coded sequence.
func (se *streamEncoder) assembleBitstream() ([]byte, error) {
	famName := string(se.spec.family)
	if len(famName) > 255 {
		return nil, fmt.Errorf("encoders: family name too long")
	}
	// The container's exact size, field by field as laid out above.
	size := len(bitstreamMagic) + 2 + len(famName) + 6 + 3 + 1 + len(se.shapes) + 1
	for _, pic := range se.pics {
		size += 4 + 8*len(pic.segRects)
		for _, s := range pic.segStreams {
			size += len(s)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, bitstreamMagic...)
	out = append(out, bitstreamVersion, byte(len(famName)))
	out = append(out, famName...)
	var u16 [2]byte
	put16 := func(v int) {
		binary.LittleEndian.PutUint16(u16[:], uint16(v))
		out = append(out, u16[:]...)
	}
	put16(se.w)
	put16(se.h)
	put16(len(se.pics))
	var tools byte
	if se.ts.halfPel {
		tools |= 1
	}
	out = append(out, byte(se.qindex), byte(se.ts.refs), tools)
	shapes := se.shapes
	out = append(out, byte(len(shapes)))
	for _, sh := range shapes {
		out = append(out, byte(sh))
	}
	out = append(out, byte(sbSize))

	for _, pic := range se.pics {
		if len(pic.segRects) == 0 || len(pic.segStreams) != len(pic.segRects) {
			return nil, fmt.Errorf("encoders: picture %d has no coded partitions", pic.index)
		}
		var flags byte
		if pic.isKey {
			flags |= 1
		}
		out = append(out, flags, byte(pic.qindex))
		put16(len(pic.segRects))
		for i, r := range pic.segRects {
			if r.row0 > 255 || r.row1 > 255 || r.col0 > 255 || r.col1 > 255 {
				return nil, fmt.Errorf("encoders: segment rect %+v exceeds container limits", r)
			}
			out = append(out, byte(r.row0), byte(r.row1), byte(r.col0), byte(r.col1))
			var u32 [4]byte
			binary.LittleEndian.PutUint32(u32[:], uint32(len(pic.segStreams[i])))
			out = append(out, u32[:]...)
		}
		for _, s := range pic.segStreams {
			out = append(out, s...)
		}
	}
	return out, nil
}

// bitstreamHeader is the parsed sequence header.
type bitstreamHeader struct {
	family  Family
	w, h    int
	frames  int
	qindex  int
	refs    int
	halfPel bool
	shapes  []Shape
}

// shapeBits returns the index width used to signal a non-NONE shape.
func (h *bitstreamHeader) shapeBits() int {
	n := 1
	for 1<<n < len(h.shapes) {
		n++
	}
	return n
}

type bsReader struct {
	data []byte
	pos  int
}

func (r *bsReader) remain() int { return len(r.data) - r.pos }

func (r *bsReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remain() < n {
		return nil, fmt.Errorf("encoders: bitstream truncated at offset %d (need %d bytes)", r.pos, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *bsReader) u8() (int, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return int(b[0]), nil
}

func (r *bsReader) u16() (int, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

func (r *bsReader) u32() (int, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	if v > 1<<30 {
		return 0, fmt.Errorf("encoders: unreasonable length %d in bitstream", v)
	}
	return int(v), nil
}

func parseHeader(r *bsReader) (*bitstreamHeader, error) {
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != bitstreamMagic {
		return nil, fmt.Errorf("encoders: bad bitstream magic %q", magic)
	}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != bitstreamVersion {
		return nil, fmt.Errorf("encoders: unsupported bitstream version %d", ver)
	}
	nameLen, err := r.u8()
	if err != nil {
		return nil, err
	}
	name, err := r.bytes(nameLen)
	if err != nil {
		return nil, err
	}
	h := &bitstreamHeader{family: Family(name)}
	if h.w, err = r.u16(); err != nil {
		return nil, err
	}
	if h.h, err = r.u16(); err != nil {
		return nil, err
	}
	if h.frames, err = r.u16(); err != nil {
		return nil, err
	}
	if h.qindex, err = r.u8(); err != nil {
		return nil, err
	}
	if h.refs, err = r.u8(); err != nil {
		return nil, err
	}
	tools, err := r.u8()
	if err != nil {
		return nil, err
	}
	h.halfPel = tools&1 != 0
	shapeCount, err := r.u8()
	if err != nil {
		return nil, err
	}
	if shapeCount < 1 || shapeCount > int(numShapes) {
		return nil, fmt.Errorf("encoders: invalid shape count %d", shapeCount)
	}
	for i := 0; i < shapeCount; i++ {
		v, err := r.u8()
		if err != nil {
			return nil, err
		}
		if v >= int(numShapes) || Shape(v) == ShapeNone {
			return nil, fmt.Errorf("encoders: invalid shape %d in header", v)
		}
		h.shapes = append(h.shapes, Shape(v))
	}
	sb, err := r.u8()
	if err != nil {
		return nil, err
	}
	if sb != sbSize {
		return nil, fmt.Errorf("encoders: bitstream superblock size %d unsupported (want %d)", sb, sbSize)
	}
	if h.w <= 0 || h.h <= 0 || h.frames <= 0 {
		return nil, fmt.Errorf("encoders: invalid sequence geometry %dx%d x%d", h.w, h.h, h.frames)
	}
	// Plausibility bound: the decoder allocates aligned planes per frame
	// and keeps every reference picture, so an adversarial header must
	// not be able to demand gigabytes before the first payload byte is
	// read. 8192 px per side covers 8K video; the total-sample budget is
	// two orders of magnitude above anything the scaled harness encodes.
	const maxDim, maxSamples = 8192, 1 << 26
	if h.w > maxDim || h.h > maxDim || h.w*h.h*h.frames > maxSamples {
		return nil, fmt.Errorf("encoders: implausible sequence geometry %dx%d x%d", h.w, h.h, h.frames)
	}
	return h, nil
}

package encoders

import (
	"fmt"

	"vcprof/internal/codec"
	"vcprof/internal/codec/entropy"
	"vcprof/internal/codec/intra"
	"vcprof/internal/codec/motion"
	"vcprof/internal/codec/quant"
	"vcprof/internal/codec/transform"
	"vcprof/internal/video"
)

// DecodeBitstream decodes a container produced by an encode with
// Options.KeepBitstream and returns the reconstructed frames. The
// decoder mirrors the encoder's commit path exactly, so its output is
// bit-identical to Result.Recon — the property the round-trip tests
// assert for every family.
func DecodeBitstream(data []byte) ([]*video.Frame, error) {
	r := &bsReader{data: data}
	hdr, err := parseHeader(r)
	if err != nil {
		return nil, err
	}
	d, err := newDecoder(hdr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < hdr.frames; i++ {
		if err := d.decodeFrame(r, i); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	if r.remain() != 0 {
		return nil, fmt.Errorf("encoders: %d trailing bytes after last frame", r.remain())
	}
	return d.output, nil
}

// decPicture is a decoded reference picture (aligned planes).
type decPicture struct {
	isKey bool
	y     *video.Plane
	u     *video.Plane
	v     *video.Plane
}

type decoder struct {
	hdr    *bitstreamHeader
	aw, ah int
	// Per-frame quantizer state, refreshed from each frame header.
	qindex int
	step   float64
	pics   []*decPicture
	output []*video.Frame
	// scratch
	pred   []byte
	res    []int32
	res2   []int32
	rec    []byte
	border [2 * sbSize]byte
}

func newDecoder(hdr *bitstreamHeader) (*decoder, error) {
	if _, err := quant.StepSize(hdr.qindex); err != nil {
		return nil, err
	}
	step, _ := quant.StepSize(hdr.qindex)
	const n = sbSize * sbSize
	return &decoder{
		hdr:    hdr,
		aw:     align(hdr.w, sbSize),
		ah:     align(hdr.h, sbSize),
		qindex: hdr.qindex,
		step:   step,
		pred:   make([]byte, n),
		res:    make([]int32, n),
		res2:   make([]int32, n),
		rec:    make([]byte, n),
	}, nil
}

// decSeg is the per-partition parse state, the decoder's mirror of
// segCtx.
type decSeg struct {
	d          *decoder
	pic        *decPicture
	prev       *decPicture
	prev2      *decPicture
	dec        *entropy.Decoder
	pm         *probModel
	prevMV     codec.MV
	segTopPx   int
	segEndPx   int
	segLeftPx  int
	segRightPx int
	isKey      bool
}

// decLeaf mirrors leafPlan for the chroma-inheritance walk.
type decLeaf struct {
	inter bool
	ref2  bool
	mv    codec.MV
}

func (d *decoder) decodeFrame(r *bsReader, idx int) error {
	flags, err := r.u8()
	if err != nil {
		return err
	}
	isKey := flags&1 != 0
	qindex, err := r.u8()
	if err != nil {
		return err
	}
	step, err := quant.StepSize(qindex)
	if err != nil {
		return err
	}
	d.qindex = qindex
	d.step = step
	segCount, err := r.u16()
	if err != nil {
		return err
	}
	if segCount == 0 || segCount > 4096 {
		return fmt.Errorf("encoders: implausible segment count %d", segCount)
	}
	type seg struct {
		rect segRect
		n    int
	}
	segs := make([]seg, segCount)
	rows, cols := d.ah/sbSize, d.aw/sbSize
	for i := range segs {
		var v [4]int
		for j := range v {
			if v[j], err = r.u8(); err != nil {
				return err
			}
		}
		rect := segRect{row0: v[0], row1: v[1], col0: v[2], col1: v[3]}
		if rect.row0 < 0 || rect.row1 > rows || rect.row0 >= rect.row1 ||
			rect.col0 < 0 || rect.col1 > cols || rect.col0 >= rect.col1 {
			return fmt.Errorf("encoders: invalid segment rect %+v for %dx%d SBs", rect, cols, rows)
		}
		if segs[i].n, err = r.u32(); err != nil {
			return err
		}
		segs[i].rect = rect
	}

	pic := &decPicture{
		isKey: isKey,
		y:     video.NewPlane(d.aw, d.ah),
		u:     video.NewPlane(d.aw/2, d.ah/2),
		v:     video.NewPlane(d.aw/2, d.ah/2),
	}
	var prev, prev2 *decPicture
	if !isKey && idx > 0 {
		prev = d.pics[idx-1]
		if idx >= 2 && d.hdr.refs >= 2 {
			prev2 = d.pics[idx-2]
		}
	}
	if !isKey && prev == nil {
		return fmt.Errorf("encoders: inter frame %d without a reference", idx)
	}

	for _, sg := range segs {
		payload, err := r.bytes(sg.n)
		if err != nil {
			return err
		}
		sc := &decSeg{
			d: d, pic: pic, prev: prev, prev2: prev2,
			dec:        entropy.NewDecoder(payload),
			pm:         newProbModel(),
			segTopPx:   sg.rect.row0 * sbSize,
			segEndPx:   sg.rect.row1 * sbSize,
			segLeftPx:  sg.rect.col0 * sbSize,
			segRightPx: sg.rect.col1 * sbSize,
			isKey:      isKey,
		}
		for row := sg.rect.row0; row < sg.rect.row1; row++ {
			for c := sg.rect.col0; c < sg.rect.col1; c++ {
				leaves, err := sc.parseNode(c*sbSize, row*sbSize, sbSize, 0)
				if err != nil {
					return err
				}
				if err := sc.decodeChromaSB(c, row, leaves); err != nil {
					return err
				}
				cdefApply(pic.y, c*sbSize, row*sbSize, d.step)
			}
		}
		if err := sc.dec.Err(); err != nil {
			return err
		}
	}

	deblockRows(nil, codec.Surface{Plane: pic.y}, 0, d.ah, d.step)
	d.pics = append(d.pics, pic)
	d.output = append(d.output, &video.Frame{
		Y:     cropPlane(pic.y, d.hdr.w, d.hdr.h),
		U:     cropPlane(pic.u, d.hdr.w/2, d.hdr.h/2),
		V:     cropPlane(pic.v, d.hdr.w/2, d.hdr.h/2),
		Index: idx,
	})
	return nil
}

// parseNode mirrors commitNode: partition flag + shape index, then the
// leaves (or recursion for SPLIT). It returns the decoded leaves so the
// chroma pass can inherit the superblock's first inter decision.
func (sc *decSeg) parseNode(x, y, n, depth int) ([]decLeaf, error) {
	notNone := sc.dec.BitAdaptive(&sc.pm.partNone[min(depth, 3)]) == 1
	shape := ShapeNone
	if notNone {
		idx := int(sc.dec.Literal(sc.d.hdr.shapeBits()))
		if idx >= len(sc.d.hdr.shapes) {
			return nil, fmt.Errorf("encoders: shape index %d out of range", idx)
		}
		shape = sc.d.hdr.shapes[idx]
	}
	if shape == ShapeSplit {
		if n/2 < 4 {
			return nil, fmt.Errorf("encoders: split below minimum block size at (%d,%d)", x, y)
		}
		var all []decLeaf
		half := n / 2
		for _, off := range [4][2]int{{0, 0}, {half, 0}, {0, half}, {half, half}} {
			leaves, err := sc.parseNode(x+off[0], y+off[1], half, depth+1)
			if err != nil {
				return nil, err
			}
			all = append(all, leaves...)
		}
		return all, nil
	}
	var buf [4]rect
	rects := shape.subBlocks(x, y, n, &buf)
	if rects == nil {
		return nil, fmt.Errorf("encoders: shape %v not applicable at size %d", shape, n)
	}
	var all []decLeaf
	for _, rc := range rects {
		lf, err := sc.parseLeaf(rc.x, rc.y, rc.w, rc.h)
		if err != nil {
			return nil, err
		}
		all = append(all, lf)
	}
	return all, nil
}

// parseLeaf mirrors commitLeaf: syntax, prediction, residual decode and
// reconstruction for one coding block.
func (sc *decSeg) parseLeaf(x, y, w, h int) (decLeaf, error) {
	d := sc.d
	if !sc.isKey {
		if sc.dec.BitAdaptive(&sc.pm.skip) == 1 {
			mv := clampMVTo(sc.prevMV, x, y, w, h, d.aw, d.ah)
			copyBlockPlane(sc.prev.y, x+int(mv.X), y+int(mv.Y), w, h, d.pred)
			writeBlockPlane(sc.pic.y, x, y, w, h, d.pred)
			sc.prevMV = mv
			return decLeaf{inter: true, mv: mv}, nil
		}
	}
	interBlk := sc.isKey == false && sc.dec.BitAdaptive(&sc.pm.interFlg) == 1
	lf := decLeaf{inter: interBlk}
	if interBlk {
		lf.mv = readMV(sc.dec, sc.pm, sc.prevMV)
		ref := sc.prev
		if d.hdr.refs >= 2 && sc.prev2 != nil {
			if sc.dec.Bit(entropy.DefaultProb) == 1 {
				lf.ref2 = true
				ref = sc.prev2
			}
		}
		var sub motion.SubPel
		if d.hdr.halfPel {
			sub.X = uint8(sc.dec.Literal(1))
			sub.Y = uint8(sc.dec.Literal(1))
		}
		if err := checkBlock(x+int(lf.mv.X), y+int(lf.mv.Y), w+int(sub.X), h+int(sub.Y), d.aw, d.ah); err != nil {
			return lf, err
		}
		if sub.X == 0 && sub.Y == 0 {
			copyBlockPlane(ref.y, x+int(lf.mv.X), y+int(lf.mv.Y), w, h, d.pred)
		} else if err := motion.InterpHalfPel(nil, codec.Surface{Plane: ref.y}, x+int(lf.mv.X), y+int(lf.mv.Y), sub, w, h, d.pred); err != nil {
			return lf, err
		}
		sc.prevMV = lf.mv
	} else {
		mode := intra.Mode(sc.dec.Literal(4))
		if w != h {
			return lf, fmt.Errorf("encoders: rectangular intra leaf %dx%d in bitstream", w, h)
		}
		nb := gatherBordersPlane(sc.pic.y, x, y, w, sc.segTopPx, sc.segLeftPx, d.border[:])
		if err := intra.Predict(nil, mode, nb, w, d.pred); err != nil {
			return lf, err
		}
	}

	// Residual: per square tile, mirror of commitLeaf.
	side := min(w, h, sbSize)
	for ty := 0; ty < h; ty += side {
		for tx := 0; tx < w; tx += side {
			levels, err := readCoefBlock(sc.dec, sc.pm, side)
			if err != nil {
				return lf, err
			}
			if err := quant.Dequantize(nil, levels, d.qindex, levels); err != nil {
				return lf, err
			}
			if err := transform.Inverse(nil, levels, side, d.res2[:side*side]); err != nil {
				return lf, err
			}
			for j := 0; j < side; j++ {
				copy(d.res[(ty+j)*w+tx:(ty+j)*w+tx+side], d.res2[j*side:(j+1)*side])
			}
		}
	}
	codec.Reconstruct(nil, d.pred, d.res[:w*h], w, h, d.rec)
	writeBlockPlane(sc.pic.y, x, y, w, h, d.rec)
	return lf, nil
}

// decodeChromaSB mirrors encodeChromaSB: one 16×16 chroma block pair per
// superblock, inheriting the first inter leaf's motion.
func (sc *decSeg) decodeChromaSB(sbx, sby int, leaves []decLeaf) error {
	d := sc.d
	var mv codec.MV
	interSB := false
	var refPic *decPicture
	for _, lf := range leaves {
		if lf.inter {
			interSB = true
			mv = lf.mv
			if lf.ref2 {
				refPic = sc.prev2
			} else {
				refPic = sc.prev
			}
			break
		}
	}
	const cb = sbSize / 2
	cx, cy := sbx*cb, sby*cb
	for pi, rec := range [2]*video.Plane{sc.pic.u, sc.pic.v} {
		if interSB && refPic != nil {
			cmv := clampMVTo(codec.MV{X: mv.X / 2, Y: mv.Y / 2}, cx, cy, cb, cb, d.aw/2, d.ah/2)
			var refPlane *video.Plane
			if pi == 0 {
				refPlane = refPic.u
			} else {
				refPlane = refPic.v
			}
			copyBlockPlane(refPlane, cx+int(cmv.X), cy+int(cmv.Y), cb, cb, d.pred)
		} else {
			nb := gatherBordersPlane(rec, cx, cy, cb, sc.segTopPx/2, sc.segLeftPx/2, d.border[:])
			if err := intra.Predict(nil, intra.DC, nb, cb, d.pred); err != nil {
				return err
			}
		}
		levels, err := readCoefBlock(sc.dec, sc.pm, cb)
		if err != nil {
			return err
		}
		if err := quant.Dequantize(nil, levels, d.qindex, levels); err != nil {
			return err
		}
		if err := transform.Inverse(nil, levels, cb, d.res[:cb*cb]); err != nil {
			return err
		}
		codec.Reconstruct(nil, d.pred, d.res[:cb*cb], cb, cb, d.rec)
		writeBlockPlane(rec, cx, cy, cb, cb, d.rec)
	}
	return nil
}

// --- plane helpers mirroring the encoder's surface operations --------

func checkBlock(x, y, w, h, aw, ah int) error {
	if x < 0 || y < 0 || x+w > aw || y+h > ah {
		return fmt.Errorf("encoders: motion block %d,%d %dx%d outside %dx%d", x, y, w, h, aw, ah)
	}
	return nil
}

func copyBlockPlane(p *video.Plane, x, y, w, h int, dst []byte) {
	for j := 0; j < h; j++ {
		copy(dst[j*w:(j+1)*w], p.Pix[(y+j)*p.Stride+x:(y+j)*p.Stride+x+w])
	}
}

func writeBlockPlane(p *video.Plane, x, y, w, h int, src []byte) {
	for j := 0; j < h; j++ {
		copy(p.Pix[(y+j)*p.Stride+x:(y+j)*p.Stride+x+w], src[j*w:(j+1)*w])
	}
}

// clampMVTo mirrors segCtx.clampMV for arbitrary plane bounds.
func clampMVTo(mv codec.MV, x, y, w, h, aw, ah int) codec.MV {
	mx, my := int(mv.X), int(mv.Y)
	if x+mx < 0 {
		mx = -x
	}
	if y+my < 0 {
		my = -y
	}
	if x+mx+w > aw {
		mx = aw - w - x
	}
	if y+my+h > ah {
		my = ah - h - y
	}
	return codec.MV{X: int16(mx), Y: int16(my)}
}

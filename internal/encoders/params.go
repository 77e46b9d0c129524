package encoders

import (
	"vcprof/internal/codec/intra"
	"vcprof/internal/codec/motion"
)

// Shape is a block partition shape. ShapeNone codes the block whole;
// ShapeSplit recurses into four quadrants; the others split the block
// into rectangles without recursion. AV1 evaluates all ten shapes, VP9
// and the H.26x models only the first four — the search-space gap the
// paper identifies as the root of AV1's instruction count (§2.2: "AV1
// allows 10 different ways to partition each block … VP9 only allows 4").
type Shape uint8

// Partition shapes.
const (
	ShapeNone Shape = iota
	ShapeSplit
	ShapeHorz
	ShapeVert
	ShapeHorzA
	ShapeHorzB
	ShapeVertA
	ShapeVertB
	ShapeHorz4
	ShapeVert4
	numShapes
)

var shapeNames = [numShapes]string{
	"NONE", "SPLIT", "HORZ", "VERT", "HORZ_A", "HORZ_B", "VERT_A", "VERT_B", "HORZ_4", "VERT_4",
}

// String names the shape.
func (s Shape) String() string {
	if int(s) < len(shapeNames) {
		return shapeNames[s]
	}
	return "?"
}

// rect is a sub-block of a partition.
type rect struct{ x, y, w, h int }

// subBlocks fills out with the sub-rectangles of shape s applied to an
// n×n block at (x, y) and returns them, a slice of out. ShapeSplit
// returns the four quadrants (the caller recurses into them); nil means
// the shape is not applicable at size n.
func (s Shape) subBlocks(x, y, n int, out *[4]rect) []rect {
	h := n / 2
	q := n / 4
	switch s {
	case ShapeNone:
		*out = [4]rect{{x, y, n, n}}
		return out[:1]
	case ShapeSplit:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, h, h}, {x + h, y, h, h}, {x, y + h, h, h}, {x + h, y + h, h, h}}
		return out[:4]
	case ShapeHorz:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, n, h}, {x, y + h, n, h}}
		return out[:2]
	case ShapeVert:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, h, n}, {x + h, y, h, n}}
		return out[:2]
	case ShapeHorzA: // two quarters on top, full-width half below
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, h, h}, {x + h, y, h, h}, {x, y + h, n, h}}
		return out[:3]
	case ShapeHorzB:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, n, h}, {x, y + h, h, h}, {x + h, y + h, h, h}}
		return out[:3]
	case ShapeVertA:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, h, h}, {x, y + h, h, h}, {x + h, y, h, n}}
		return out[:3]
	case ShapeVertB:
		if h < 4 {
			return nil
		}
		*out = [4]rect{{x, y, h, n}, {x + h, y, h, h}, {x + h, y + h, h, h}}
		return out[:3]
	case ShapeHorz4:
		if q < 4 {
			return nil
		}
		*out = [4]rect{{x, y, n, q}, {x, y + q, n, q}, {x, y + 2*q, n, q}, {x, y + 3*q, n, q}}
		return out[:4]
	case ShapeVert4:
		if q < 4 {
			return nil
		}
		*out = [4]rect{{x, y, q, n}, {x + q, y, q, n}, {x + 2*q, y, q, n}, {x + 3*q, y, q, n}}
		return out[:4]
	}
	return nil
}

// toolset is the concrete search configuration a (family, preset) pair
// resolves to.
type toolset struct {
	shapes        []Shape // shapes beyond NONE/SPLIT to evaluate
	trySplit      bool
	minBlock      int // recursion floor (luma samples)
	intraModes    []intra.Mode
	motionAlg     motion.Algorithm
	motionRange   int
	refineRange   int  // refinement range around the analysis MV
	fullRD        bool // transform-domain RD in mode decision
	txSplitSearch bool // additionally evaluate split transforms
	halfPel       bool // half-sample motion compensation + search
	refs          int  // reference frames searched (1 or 2)
	skipBias      float64
	earlyExitBias float64
}

type schedKind uint8

// Threading architectures (§4.6).
const (
	schedSegments  schedKind = iota // SVT-AV1: segment + frame pipeline
	schedWavefront                  // x264: row wavefront
	schedMaster                     // x265: master thread + filter helpers
	schedTiles                      // libaom / vp9: tile parallelism
)

type familySpec struct {
	family         Family
	crfMax         int
	presetMax      int
	presetReversed bool
	// qindexForCRF maps the family CRF scale to the shared 0..255
	// quantizer-index scale.
	qindexForCRF func(crf int) int
	// tools resolves effort (0 fastest .. 1 slowest) to a toolset.
	tools func(effort float64) toolset
	sched schedKind
	// rdBonus scales the rate estimate used in RD decisions, modeling
	// entropy-coding efficiency differences between generations (newer
	// codecs pack the same syntax into fewer bits).
	rdBonus float64
}

var (
	intraModesBasic = []intra.Mode{intra.DC, intra.Vertical, intra.Horizontal}
	intraModesStd   = []intra.Mode{intra.DC, intra.Vertical, intra.Horizontal, intra.Planar}
)

// angularModes returns n synthetic angular refinements (see package
// intra); generations with richer intra toolkits evaluate more of them.
func intraModesWithAngles(n int) []intra.Mode {
	out := append([]intra.Mode{}, intraModesStd...)
	for i := 0; i < n && i < int(intra.NumAngles); i++ {
		out = append(out, intra.Angular(i))
	}
	return out
}

func lerpInt(lo, hi int, t float64) int {
	return lo + int(t*float64(hi-lo)+0.5)
}

// av1Tools is shared by the SVT-AV1 and libaom models: the full
// ten-shape partition search and the widest intra set. exhaustive
// selects libaom's slower decision style (less aggressive early exits).
func av1Tools(effort float64, exhaustive bool) toolset {
	ts := toolset{
		trySplit:      true,
		minBlock:      8,
		motionAlg:     motion.Diamond,
		motionRange:   lerpInt(6, 16, effort),
		refineRange:   lerpInt(2, 6, effort),
		refs:          1,
		skipBias:      1.4 - effort, // slow presets skip less eagerly
		earlyExitBias: 1.5 - effort,
	}
	switch {
	case effort >= 0.75: // presets 0–2: everything on
		ts.shapes = []Shape{ShapeHorz, ShapeVert, ShapeHorzA, ShapeHorzB, ShapeVertA, ShapeVertB, ShapeHorz4, ShapeVert4}
		ts.intraModes = intraModesWithAngles(8)
		ts.motionAlg = motion.Full
		ts.fullRD = true
		ts.txSplitSearch = true
		ts.halfPel = true
		ts.refs = 2
		ts.minBlock = 4
	case effort >= 0.5: // presets 3–4
		ts.shapes = []Shape{ShapeHorz, ShapeVert, ShapeHorzA, ShapeHorzB, ShapeVertA, ShapeVertB, ShapeHorz4, ShapeVert4}
		ts.intraModes = intraModesWithAngles(4)
		ts.fullRD = true
		ts.halfPel = true
		ts.refs = 2
		ts.minBlock = 8
	case effort >= 0.25: // presets 5–6
		ts.shapes = []Shape{ShapeHorz, ShapeVert, ShapeHorz4, ShapeVert4}
		ts.intraModes = intraModesWithAngles(2)
		ts.minBlock = 8
	default: // presets 7–8
		ts.shapes = []Shape{ShapeHorz, ShapeVert}
		ts.intraModes = intraModesStd
		ts.motionAlg = motion.Hex
		ts.minBlock = 16
	}
	if exhaustive {
		// libaom's decision loops terminate later than SVT's.
		ts.skipBias *= 0.7
		ts.earlyExitBias *= 0.7
		ts.refineRange++
	}
	return ts
}

func vp9Tools(effort float64) toolset {
	ts := toolset{
		trySplit:      true,
		minBlock:      8,
		intraModes:    intraModesStd,
		motionAlg:     motion.Diamond,
		motionRange:   lerpInt(6, 14, effort),
		refineRange:   lerpInt(2, 5, effort),
		refs:          1,
		skipBias:      1.4 - effort,
		earlyExitBias: 1.4 - effort,
	}
	switch {
	case effort >= 0.6:
		ts.shapes = []Shape{ShapeHorz, ShapeVert}
		ts.fullRD = true
		ts.halfPel = true
		ts.minBlock = 4
	case effort >= 0.3:
		ts.shapes = []Shape{ShapeHorz, ShapeVert}
	default:
		ts.shapes = nil
		ts.motionAlg = motion.Hex
		ts.minBlock = 16
	}
	return ts
}

func x264Tools(effort float64) toolset {
	ts := toolset{
		trySplit:      true,
		minBlock:      8,
		intraModes:    intraModesBasic,
		motionAlg:     motion.Hex,
		motionRange:   lerpInt(6, 14, effort),
		refineRange:   lerpInt(1, 4, effort),
		refs:          1,
		skipBias:      1.5 - effort,
		earlyExitBias: 1.5 - effort,
	}
	switch {
	case effort >= 0.6:
		ts.shapes = []Shape{ShapeHorz, ShapeVert}
		ts.intraModes = intraModesStd
		ts.motionAlg = motion.Diamond
		ts.fullRD = true
		ts.halfPel = true
	case effort >= 0.3:
		ts.shapes = []Shape{ShapeHorz, ShapeVert}
	default:
		ts.shapes = nil
		ts.minBlock = 16
	}
	return ts
}

func x265Tools(effort float64) toolset {
	ts := x264Tools(effort)
	// HEVC adds larger blocks, more intra angles and deeper RD.
	ts.intraModes = intraModesWithAngles(lerpInt(0, 4, effort))
	if effort >= 0.6 {
		ts.minBlock = 4
		ts.txSplitSearch = true
	}
	return ts
}

var specs = map[Family]familySpec{
	SVTAV1: {
		family: SVTAV1, crfMax: 63, presetMax: 8,
		qindexForCRF: func(crf int) int { return clampQ(crf * 4) },
		tools:        func(e float64) toolset { return av1Tools(e, false) },
		sched:        schedSegments,
		rdBonus:      0.72,
	},
	Libaom: {
		family: Libaom, crfMax: 63, presetMax: 8,
		qindexForCRF: func(crf int) int { return clampQ(crf * 4) },
		tools:        func(e float64) toolset { return av1Tools(e, true) },
		sched:        schedTiles,
		rdBonus:      0.72,
	},
	VP9: {
		family: VP9, crfMax: 63, presetMax: 8,
		qindexForCRF: func(crf int) int { return clampQ(crf * 4) },
		tools:        vp9Tools,
		sched:        schedTiles,
		rdBonus:      0.80,
	},
	X264: {
		family: X264, crfMax: 51, presetMax: 9, presetReversed: true,
		qindexForCRF: func(crf int) int { return clampQ(crf * 5) },
		tools:        x264Tools,
		sched:        schedWavefront,
		rdBonus:      1.0,
	},
	X265: {
		family: X265, crfMax: 51, presetMax: 9, presetReversed: true,
		qindexForCRF: func(crf int) int { return clampQ(crf * 5) },
		tools:        x265Tools,
		sched:        schedMaster,
		rdBonus:      0.82,
	},
}

func clampQ(q int) int {
	if q < 1 {
		return 1
	}
	if q > 255 {
		return 255
	}
	return q
}

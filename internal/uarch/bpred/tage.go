package bpred

import (
	"fmt"
	"math/bits"
)

// TAGE (TAgged GEometric history length) predictor after Seznec: a
// bimodal base plus tagged components indexed by geometrically growing
// history lengths. The longest-history matching component provides the
// prediction; allocation on mispredict moves hard branches into longer
// history components.
type TAGE struct {
	name     string
	base     []ctr2
	baseMask uint64

	comps []tageComp

	ghist history

	// prediction bookkeeping between Predict and Update
	provider int // component index (-1 = base)
	altPred  bool
	provPred bool
	provIdx  uint64
	// look holds Predict's per-component index and tag so Update does
	// not recompute them; it is valid for lookPC until the history
	// moves.
	look   [tageMaxComps]tageLookup
	lookPC uint64
	lookOK bool

	useAltOnNA int8 // counter favouring alt prediction for fresh entries
	sizeBits   int
	rng        uint32 // deterministic PRNG for allocation tie-break
}

type tageEntry struct {
	tag uint16
	ctr int8 // -4..3, ≥0 predicts taken
	use uint8
}

type tageComp struct {
	entries []tageEntry
	mask    uint64
	histLen int
	tagBits uint
	width   uint // index bits: log2(len(entries))

	// The three folds of the newest histLen outcomes, kept current by
	// Update: index width, tag width, tag width minus one.
	idxFold, tagFold, tag1Fold fold
}

type tageLookup struct {
	idx uint64
	tag uint16
}

// tageMaxComps bounds the tagged components of any geometry (the 64KB
// point has five).
const tageMaxComps = 5

// history is the packed global direction history: the outcome of age i
// (0 = newest) is bit i&63 of word i>>6. 256 outcomes cover the longest
// geometric length (180) and let every age fit a uint8.
type history [4]uint64

func (h *history) bit(age uint8) uint64 { return h[age>>6] >> (age & 63) & 1 }

func (h *history) push(in uint64) {
	for i := len(h) - 1; i > 0; i-- {
		h[i] = h[i]<<1 | h[i-1]>>63
	}
	h[0] = h[0]<<1 | in
}

// fold is an incrementally maintained fold of the newest n history
// outcomes into width bits. The fold is chunked MSB-first: outcome i
// sits at bit w-1-(i mod w) of its chunk, the chunks are XORed, and a
// partial last chunk of r = n mod w outcomes is right-aligned (outcome
// qw+k at bit r-1-k). A history shorter than the width is one whole
// chunk of w = n bits. See DESIGN.md §4 for the update's derivation.
type fold struct {
	val      uint64
	top      uint64 // bit w-1, w = min(width, n) the chunk width
	seamMask uint64 // bit w-1 ^ bit r-1; 0 when n is a multiple of w
	seam     uint8  // age of the last outcome of the last whole chunk: qw-1
}

func newFold(n int, width uint) fold {
	w := int(width)
	if n < w {
		w = n
	}
	f := fold{top: 1 << (w - 1)}
	if r := n % w; r > 0 {
		f.seam = uint8(n - r - 1)
		f.seamMask = f.top ^ 1<<(r-1)
	}
	return f
}

// push advances the fold by one outcome. h is the history before the
// outcome is pushed onto it and d is the incoming outcome XOR the
// outgoing one (age n-1). Ageing every outcome by one is a rotate
// right within w bits, except for three outcomes that all land on the
// top bit: the new one belongs there; the outgoing one (rotated up
// from bit 0 of the last chunk) is cancelled; and the seam outcome,
// which crosses from the last whole chunk into the partial one, is
// moved from the top bit to bit r-1 where the right-aligned chunk
// wants it.
func (f *fold) push(h *history, d uint64) {
	v := f.val>>1 ^ f.top&-(f.val&1^d)
	f.val = v ^ f.seamMask&-h.bit(f.seam)
}

// tageGeometry describes a budget point.
type tageGeometry struct {
	baseEntries int
	compEntries int
	histLens    []int
	tagBits     uint
}

// NewTAGE builds a TAGE predictor at one of the supported budgets
// (8192 or 65536 bytes, the paper's 8KB and 64KB configurations), or
// any power-of-two budget in between for ablations.
func NewTAGE(sizeBytes int) (*TAGE, error) {
	var g tageGeometry
	switch {
	case sizeBytes == 8<<10:
		g = tageGeometry{baseEntries: 1 << 12, compEntries: 1 << 10, histLens: []int{5, 14, 36, 90}, tagBits: 9}
	case sizeBytes == 64<<10:
		g = tageGeometry{baseEntries: 1 << 14, compEntries: 1 << 12, histLens: []int{5, 14, 36, 90, 180}, tagBits: 11}
	case sizeBytes > 0 && sizeBytes&(sizeBytes-1) == 0 && sizeBytes >= 1<<10 && sizeBytes <= 1<<20:
		// Generic scaling for ablation studies.
		scale := 0
		for s := 8 << 10; s < sizeBytes; s <<= 1 {
			scale++
		}
		for s := 8 << 10; s > sizeBytes; s >>= 1 {
			scale--
		}
		base := 1 << 12
		comp := 1 << 10
		if scale > 0 {
			base <<= uint(scale)
			comp <<= uint(scale)
		} else {
			base >>= uint(-scale)
			comp >>= uint(-scale)
		}
		if base < 64 {
			base = 64
		}
		if comp < 64 {
			comp = 64
		}
		g = tageGeometry{baseEntries: base, compEntries: comp, histLens: []int{5, 14, 36, 90}, tagBits: 9}
	default:
		return nil, fmt.Errorf("bpred: unsupported TAGE budget %d bytes", sizeBytes)
	}
	t := &TAGE{
		name:     fmt.Sprintf("tage-%dKB", sizeBytes/1024),
		base:     make([]ctr2, g.baseEntries),
		baseMask: uint64(g.baseEntries - 1),
		rng:      0x2545F491,
	}
	width := uint(bits.Len(uint(g.compEntries - 1)))
	for _, hl := range g.histLens {
		t.comps = append(t.comps, tageComp{
			entries: make([]tageEntry, g.compEntries),
			mask:    uint64(g.compEntries - 1),
			histLen: hl,
			tagBits: g.tagBits,
			width:   width,

			idxFold:  newFold(hl, width),
			tagFold:  newFold(hl, g.tagBits),
			tag1Fold: newFold(hl, g.tagBits-1),
		})
	}
	t.sizeBits = g.baseEntries*2 + len(g.histLens)*g.compEntries*(int(g.tagBits)+3+2)
	return t, nil
}

// Name implements Predictor.
func (t *TAGE) Name() string { return t.name }

// SizeBits implements Predictor.
func (t *TAGE) SizeBits() int { return t.sizeBits }

func (c *tageComp) index(pc uint64) uint64 {
	return ((pc >> 2) ^ (pc >> (2 + c.width)) ^ c.idxFold.val) & c.mask
}

func (c *tageComp) tag(pc uint64) uint16 {
	return uint16(((pc >> 2) ^ c.tagFold.val ^ c.tag1Fold.val<<1) & (1<<c.tagBits - 1))
}

// lookup computes every component's index and tag for pc against the
// current history.
func (t *TAGE) lookup(pc uint64) {
	for ci := range t.comps {
		c := &t.comps[ci]
		t.look[ci] = tageLookup{idx: c.index(pc), tag: c.tag(pc)}
	}
	t.lookPC, t.lookOK = pc, true
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.lookup(pc)
	t.provider = -1
	alt := -1
	for ci := len(t.comps) - 1; ci >= 0; ci-- {
		l := t.look[ci]
		if t.comps[ci].entries[l.idx].tag == l.tag {
			if t.provider == -1 {
				t.provider = ci
				t.provIdx = l.idx
			} else if alt == -1 {
				alt = ci
			}
		}
	}
	basePred := t.base[(pc>>2)&t.baseMask].taken()
	t.altPred = basePred
	if alt != -1 {
		t.altPred = t.comps[alt].entries[t.look[alt].idx].ctr >= 0
	}
	if t.provider == -1 {
		t.provPred = basePred
		return basePred
	}
	e := &t.comps[t.provider].entries[t.provIdx]
	t.provPred = e.ctr >= 0
	// Weak fresh entries defer to the alternate prediction when the
	// use-alt counter suggests so.
	if e.use == 0 && (e.ctr == 0 || e.ctr == -1) && t.useAltOnNA >= 0 {
		return t.altPred
	}
	return t.provPred
}

func (t *TAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Update implements Predictor.
func (t *TAGE) Update(pc uint64, taken bool) {
	if !t.lookOK || t.lookPC != pc {
		t.lookup(pc)
	}
	pred := t.provPred
	if t.provider == -1 {
		pred = t.altPred
	}
	mispred := pred != taken

	if t.provider >= 0 {
		e := &t.comps[t.provider].entries[t.provIdx]
		// Track whether alt would have been the better choice for weak
		// entries.
		if e.use == 0 && (e.ctr == 0 || e.ctr == -1) && t.provPred != t.altPred {
			if t.altPred == taken && t.useAltOnNA < 7 {
				t.useAltOnNA++
			} else if t.altPred != taken && t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if t.provPred != t.altPred {
			if t.provPred == taken {
				if e.use < 3 {
					e.use++
				}
			} else if e.use > 0 {
				e.use--
			}
		}
	} else {
		i := (pc >> 2) & t.baseMask
		t.base[i] = t.base[i].update(taken)
	}

	// Allocate a new entry in a longer-history component on mispredict.
	if mispred && t.provider < len(t.comps)-1 {
		start := t.provider + 1
		allocated := false
		for ci := start; ci < len(t.comps); ci++ {
			e := &t.comps[ci].entries[t.look[ci].idx]
			if e.use == 0 {
				e.tag = t.look[ci].tag
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay a random candidate's usefulness so allocation
			// eventually succeeds on persistent mispredictions. The
			// modulo stays in uint32: converted first, a 32-bit int
			// would go negative.
			ci := start + int(t.nextRand()%uint32(len(t.comps)-start))
			e := &t.comps[ci].entries[t.look[ci].idx]
			if e.use > 0 {
				e.use--
			}
		}
	}

	// Shift history: the folds first, they read the outgoing outcomes.
	var in uint64
	if taken {
		in = 1
	}
	for ci := range t.comps {
		c := &t.comps[ci]
		d := in ^ t.ghist.bit(uint8(c.histLen-1))
		c.idxFold.push(&t.ghist, d)
		c.tagFold.push(&t.ghist, d)
		c.tag1Fold.push(&t.ghist, d)
	}
	t.ghist.push(in)
	t.lookOK = false
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for ci := range t.comps {
		c := &t.comps[ci]
		for i := range c.entries {
			c.entries[i] = tageEntry{}
		}
		c.idxFold.val, c.tagFold.val, c.tag1Fold.val = 0, 0, 0
	}
	t.ghist = history{}
	t.lookOK = false
	t.useAltOnNA = 0
	t.rng = 0x2545F491
}

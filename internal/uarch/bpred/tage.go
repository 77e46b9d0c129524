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

	// comps are the tagged components, kept in the predictor's own
	// allocation (compArr). Step writes their folds and then reads the
	// history ring: held in an array of their own, a reused predictor
	// (one fixed placement of the two) cost a stat cell 1.16× the CPU,
	// as 4K aliasing between them would, and one allocation cannot put
	// them 4 KB apart.
	comps   []tageComp
	compArr [tageMaxComps]tageComp

	ghist history

	useAltOnNA int8   // counter favouring alt prediction for fresh entries
	rng        uint32 // deterministic PRNG for allocation tie-break
}

type tageEntry struct {
	tag uint16
	ctr int8 // -4..3, ≥0 predicts taken
	use uint8
}

type tageComp struct {
	entries []tageEntry
	mask    uint64 // index mask: len(entries)-1
	tagMask uint64
	shift   uint8 // 2 + the index width: the second pc slice an index mixes in
	out     uint8 // age of the outcome leaving the history window: histLen-1

	// The three folds of the newest histLen outcomes, kept current by
	// Step: index width, tag width, tag width minus one.
	idxFold, tagFold, tag1Fold fold
}

// tageMaxComps bounds the tagged components of any geometry (the 64KB
// point has five).
const tageMaxComps = 5

// history is the global direction history as a ring of outcomes, one
// a byte: the outcome of age i (0 = newest) is ring[head+i], the sum
// wrapping in a uint8. 256 outcomes cover the longest geometric length
// (180), reading an age is one load, and a push writes one byte.
type history struct {
	ring [256]uint8
	head uint8
}

func (h *history) bit(age uint8) uint64 { return uint64(h.ring[h.head+age]) }

func (h *history) push(in uint64) {
	h.head--
	h.ring[h.head] = uint8(in)
}

// fold is an incrementally maintained fold of the newest n history
// outcomes into width bits. The fold is chunked MSB-first: outcome i
// sits at bit w-1-(i mod w) of its chunk, the chunks are XORed, and a
// partial last chunk of r = n mod w outcomes is right-aligned (outcome
// qw+k at bit r-1-k). A history shorter than the width is one whole
// chunk of w = n bits.
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

// NewTAGE builds a TAGE predictor at a power-of-two budget from 1KB to
// 1MB: the paper's 8KB point with its tables scaled to the budget, but
// for its 64KB point, which spends half of the eightfold on a fifth,
// longer-history component and wider tags.
func NewTAGE(sizeBytes int) (*TAGE, error) {
	if sizeBytes < 1<<10 || sizeBytes > 1<<20 || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("bpred: unsupported TAGE budget %d bytes", sizeBytes)
	}
	g := tageGeometry{baseEntries: sizeBytes / 2, compEntries: sizeBytes / 8, histLens: []int{5, 14, 36, 90}, tagBits: 9}
	if sizeBytes == 64<<10 {
		g = tageGeometry{baseEntries: 1 << 14, compEntries: 1 << 12, histLens: []int{5, 14, 36, 90, 180}, tagBits: 11}
	}
	t := &TAGE{
		name:     fmt.Sprintf("tage-%dKB", sizeBytes/1024),
		base:     make([]ctr2, g.baseEntries),
		baseMask: uint64(g.baseEntries - 1),
		rng:      0x2545F491,
	}
	width := uint(bits.Len(uint(g.compEntries - 1)))
	t.comps = t.compArr[:0]
	for _, hl := range g.histLens {
		t.comps = append(t.comps, tageComp{
			entries: make([]tageEntry, g.compEntries),
			mask:    uint64(g.compEntries - 1),
			tagMask: 1<<g.tagBits - 1,
			shift:   uint8(2 + width),
			out:     uint8(hl - 1),

			idxFold:  newFold(hl, width),
			tagFold:  newFold(hl, g.tagBits),
			tag1Fold: newFold(hl, g.tagBits-1),
		})
	}
	return t, nil
}

// Name implements Predictor.
func (t *TAGE) Name() string { return t.name }

func (c *tageComp) index(pc uint64) uint64 {
	// shift is under 64; the mask says so and spares the shift a compare.
	return ((pc >> 2) ^ (pc >> (c.shift & 63)) ^ c.idxFold.val) & c.mask
}

func (c *tageComp) tag(pc uint64) uint16 {
	return uint16(((pc >> 2) ^ c.tagFold.val ^ c.tag1Fold.val<<1) & c.tagMask)
}

// Step implements Predictor. One pass over the components computes each
// index and tag against the current history, notes the two longest
// matches and — the outcome being known — advances that component's
// folds; nothing is kept from one branch to the next but the tables,
// the folds and the history.
func (t *TAGE) Step(pc uint64, taken bool) bool {
	var in uint64
	if taken {
		in = 1
	}
	var idx [tageMaxComps]uint64
	var tag [tageMaxComps]uint16
	comps := t.comps
	provider, alt := -1, -1
	for ci := len(comps) - 1; ci >= 0; ci-- {
		c := &comps[ci]
		i, g := c.index(pc), c.tag(pc)
		idx[ci], tag[ci] = i, g
		if c.entries[i].tag == g {
			if provider == -1 {
				provider = ci
			} else if alt == -1 {
				alt = ci
			}
		}
		// The folds read the outgoing outcomes, so the history moves
		// after every component has.
		d := in ^ t.ghist.bit(c.out)
		c.idxFold.push(&t.ghist, d)
		c.tagFold.push(&t.ghist, d)
		c.tag1Fold.push(&t.ghist, d)
	}
	t.ghist.push(in)

	bi := (pc >> 2) & t.baseMask
	altPred := t.base[bi].taken()
	if alt != -1 {
		altPred = comps[alt].entries[idx[alt]].ctr >= 0
	}
	pred, provPred := altPred, altPred
	if provider == -1 {
		t.base[bi] = t.base[bi].update(taken)
	} else {
		e := &comps[provider].entries[idx[provider]]
		provPred = e.ctr >= 0
		pred = provPred
		// Weak fresh entries defer to the alternate prediction when the
		// use-alt counter suggests so, and train that counter on whether
		// alt would have been the better choice.
		if e.use == 0 && (e.ctr == 0 || e.ctr == -1) {
			if t.useAltOnNA >= 0 {
				pred = altPred
			}
			if provPred != altPred {
				if altPred == taken && t.useAltOnNA < 7 {
					t.useAltOnNA++
				} else if altPred != taken && t.useAltOnNA > -8 {
					t.useAltOnNA--
				}
			}
		}
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if provPred != altPred {
			if provPred == taken {
				if e.use < 3 {
					e.use++
				}
			} else if e.use > 0 {
				e.use--
			}
		}
	}

	// Allocate a new entry in a longer-history component when the
	// provider (not the use-alt choice) mispredicted.
	if provPred != taken && provider < len(comps)-1 {
		start := provider + 1
		allocated := false
		for ci := start; ci < len(comps); ci++ {
			e := &comps[ci].entries[idx[ci]]
			if e.use == 0 {
				e.tag = tag[ci]
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
			ci := start + int(t.nextRand()%uint32(len(comps)-start))
			e := &comps[ci].entries[idx[ci]]
			if e.use > 0 {
				e.use--
			}
		}
	}
	return pred
}

func (t *TAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
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
	t.useAltOnNA = 0
	t.rng = 0x2545F491
}

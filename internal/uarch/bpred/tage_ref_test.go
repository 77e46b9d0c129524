package bpred

import (
	"fmt"
)

// refTAGE is the TAGE implementation this package shipped before the
// fold-register rewrite, moved here verbatim (identifiers prefixed,
// nothing else changed) as the oracle of the differential tests: a
// []bool history re-folded from scratch on every index and tag
// computation. It shares only the table-entry and geometry types with
// the production predictor.
type refTAGE struct {
	name     string
	base     []ctr2
	baseMask uint64

	comps []refTageComp

	ghist []bool // shift register of directions, newest first

	// prediction bookkeeping between Predict and Update
	provider   int // component index (-1 = base)
	altPred    bool
	provPred   bool
	provIdx    uint64
	useAltOnNA int8   // counter favouring alt prediction for fresh entries
	rng        uint32 // deterministic PRNG for allocation tie-break
}

type refTageComp struct {
	entries []tageEntry
	mask    uint64
	histLen int
	tagBits uint
}

// newRefTAGE builds a refTAGE predictor at one of the supported budgets
// (8192 or 65536 bytes, the paper's 8KB and 64KB configurations), or
// any power-of-two budget in between for ablations.
func newRefTAGE(sizeBytes int) (*refTAGE, error) {
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
	t := &refTAGE{
		name:     fmt.Sprintf("tage-%dKB", sizeBytes/1024),
		base:     make([]ctr2, g.baseEntries),
		baseMask: uint64(g.baseEntries - 1),
		ghist:    make([]bool, g.histLens[len(g.histLens)-1]+1),
		rng:      0x2545F491,
	}
	for _, hl := range g.histLens {
		t.comps = append(t.comps, refTageComp{
			entries: make([]tageEntry, g.compEntries),
			mask:    uint64(g.compEntries - 1),
			histLen: hl,
			tagBits: g.tagBits,
		})
	}
	return t, nil
}

// Name implements Predictor.
func (t *refTAGE) Name() string { return t.name }

// foldHist folds the most recent n history bits into width bits.
func (t *refTAGE) foldHist(n int, width uint) uint64 {
	var folded, chunk uint64
	var used uint
	for i := 0; i < n; i++ {
		chunk <<= 1
		if t.ghist[i] {
			chunk |= 1
		}
		used++
		if used == width {
			folded ^= chunk
			chunk, used = 0, 0
		}
	}
	if used > 0 {
		folded ^= chunk
	}
	return folded & ((1 << width) - 1)
}

func (c *refTageComp) width() uint {
	w := uint(0)
	for m := c.mask; m > 0; m >>= 1 {
		w++
	}
	return w
}

func (t *refTAGE) compIndex(ci int, pc uint64) uint64 {
	c := &t.comps[ci]
	w := c.width()
	h := t.foldHist(c.histLen, w)
	return ((pc >> 2) ^ (pc >> (2 + w)) ^ h) & c.mask
}

func (t *refTAGE) compTag(ci int, pc uint64) uint16 {
	c := &t.comps[ci]
	h := t.foldHist(c.histLen, c.tagBits)
	h2 := t.foldHist(c.histLen, c.tagBits-1) << 1
	return uint16(((pc >> 2) ^ h ^ h2) & ((1 << c.tagBits) - 1))
}

// Predict implements Predictor.
func (t *refTAGE) Predict(pc uint64) bool {
	t.provider = -1
	alt := -1
	for ci := len(t.comps) - 1; ci >= 0; ci-- {
		idx := t.compIndex(ci, pc)
		if t.comps[ci].entries[idx].tag == t.compTag(ci, pc) {
			if t.provider == -1 {
				t.provider = ci
				t.provIdx = idx
			} else if alt == -1 {
				alt = ci
			}
		}
	}
	basePred := t.base[(pc>>2)&t.baseMask].taken()
	t.altPred = basePred
	if alt != -1 {
		t.altPred = t.comps[alt].entries[t.compIndex(alt, pc)].ctr >= 0
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

func (t *refTAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Update implements Predictor.
func (t *refTAGE) Update(pc uint64, taken bool) {
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
			idx := t.compIndex(ci, pc)
			e := &t.comps[ci].entries[idx]
			if e.use == 0 {
				e.tag = t.compTag(ci, pc)
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
			// eventually succeeds on persistent mispredictions.
			ci := start + int(t.nextRand())%(len(t.comps)-start)
			idx := t.compIndex(ci, pc)
			e := &t.comps[ci].entries[idx]
			if e.use > 0 {
				e.use--
			}
		}
	}

	// Shift history.
	copy(t.ghist[1:], t.ghist[:len(t.ghist)-1])
	t.ghist[0] = taken
}

// Reset implements Predictor.
func (t *refTAGE) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for ci := range t.comps {
		for i := range t.comps[ci].entries {
			t.comps[ci].entries[i] = tageEntry{}
		}
	}
	for i := range t.ghist {
		t.ghist[i] = false
	}
	t.useAltOnNA = 0
	t.rng = 0x2545F491
}

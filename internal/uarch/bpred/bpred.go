// Package bpred implements the branch predictors the paper evaluates
// with the CBP-2016 framework: Gshare at 2KB and 32KB budgets and
// TAGE at 8KB and 64KB budgets, plus a bimodal baseline and a hashed
// perceptron used by the ablation benches. All predictors implement the
// same one-call Step protocol the CBP harness drives.
package bpred

import (
	"fmt"
	"math/bits"
)

// Predictor is a conditional-branch direction predictor.
type Predictor interface {
	// Name identifies the predictor and its budget, e.g. "tage-64KB".
	Name() string
	// Step predicts the branch at pc, then trains on its resolved
	// direction, and returns the prediction. Every caller resolves a
	// branch as it predicts it, so one call is the whole protocol.
	Step(pc uint64, taken bool) (pred bool)
	// Reset clears all state.
	Reset()
}

// ctr2 is a 2-bit saturating counter; ≥2 predicts taken.
type ctr2 uint8

func (c ctr2) taken() bool { return c >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// ---------------------------------------------------------------------
// Bimodal

// Bimodal is a per-PC 2-bit counter table.
type Bimodal struct {
	table []ctr2
	mask  uint64
	name  string
}

// NewBimodal builds a bimodal predictor with the given table size
// (power of two).
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: bimodal entries %d not a power of two", entries)
	}
	return &Bimodal{
		table: make([]ctr2, entries),
		mask:  uint64(entries - 1),
		name:  fmt.Sprintf("bimodal-%dKB", entries*2/8/1024),
	}, nil
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return b.name }

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Step implements Predictor.
func (b *Bimodal) Step(pc uint64, taken bool) bool {
	c := &b.table[b.index(pc)]
	pred := c.taken()
	*c = c.update(taken)
	return pred
}

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 0
	}
}

// ---------------------------------------------------------------------
// Gshare

// Gshare XORs global history with the PC to index a 2-bit counter
// table (McFarling 1993), the paper's baseline scheme.
type Gshare struct {
	table    []ctr2
	mask     uint64
	histBits uint
	ghist    uint64
	name     string
}

// NewGshare builds a gshare predictor with a total budget of sizeBytes
// (power of two; the table holds 4·sizeBytes 2-bit counters).
func NewGshare(sizeBytes int) (*Gshare, error) {
	if sizeBytes <= 0 || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("bpred: gshare size %dB not a power of two", sizeBytes)
	}
	entries := sizeBytes * 4
	// History length is fixed at 12 across budgets (the usable history
	// of a gshare at these scales); growing the table then purely
	// relieves index aliasing, which is the "bigger predictor" effect
	// the paper measures.
	histBits := uint(bits.Len(uint(entries)) - 1)
	if histBits > 12 {
		histBits = 12
	}
	var name string
	if sizeBytes >= 1024 {
		name = fmt.Sprintf("gshare-%dKB", sizeBytes/1024)
	} else {
		name = fmt.Sprintf("gshare-%dB", sizeBytes)
	}
	return &Gshare{
		table:    make([]ctr2, entries),
		mask:     uint64(entries - 1),
		histBits: histBits,
		name:     name,
	}, nil
}

// Name implements Predictor.
func (g *Gshare) Name() string { return g.name }

func (g *Gshare) index(pc uint64) uint64 {
	h := g.ghist & ((1 << g.histBits) - 1)
	return ((pc >> 2) ^ h) & g.mask
}

// Step implements Predictor.
func (g *Gshare) Step(pc uint64, taken bool) bool {
	c := &g.table[g.index(pc)]
	pred := c.taken()
	*c = c.update(taken)
	g.ghist <<= 1
	if taken {
		g.ghist |= 1
	}
	return pred
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 0
	}
	g.ghist = 0
}

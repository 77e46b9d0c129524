package bpred

import (
	"fmt"
)

// Perceptron is a hashed perceptron predictor (Jiménez & Lin), included
// as an extension ablation: a third predictor family at equal budget to
// compare against Gshare and TAGE.
type Perceptron struct {
	name    string
	weights []int8 // rows × perceptronRow, one row after another
	mask    uint64
	ghist   uint64
	size    int
}

// perceptronHist is the global history length; a row is a bias weight
// and one weight per history bit. A correct prediction still trains
// while |sum| ≤ theta = ⌊1.93·hist + 14⌋.
const (
	perceptronHist  = 24
	perceptronRow   = perceptronHist + 1
	perceptronTheta = 60
)

// NewPerceptron builds a hashed perceptron with the given byte budget
// (power of two).
func NewPerceptron(sizeBytes int) (*Perceptron, error) {
	if sizeBytes <= 0 || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("bpred: perceptron size %dB not a power of two", sizeBytes)
	}
	// Round rows down to a power of two.
	rows := 1
	for rows*2 <= sizeBytes/perceptronRow {
		rows *= 2
	}
	return &Perceptron{
		name:    fmt.Sprintf("perceptron-%dKB", sizeBytes/1024),
		weights: make([]int8, rows*perceptronRow),
		mask:    uint64(rows - 1),
		size:    rows * perceptronRow * 8,
	}, nil
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// SizeBits implements Predictor.
func (p *Perceptron) SizeBits() int { return p.size }

// row returns pc's weights: the bias, then one weight per history bit.
func (p *Perceptron) row(pc uint64) *[perceptronRow]int8 {
	i := int(((pc>>2)^(pc>>13))&p.mask) * perceptronRow
	return (*[perceptronRow]int8)(p.weights[i:])
}

// Step implements Predictor. The sum adds a weight where the history
// bit is set and subtracts it where it is clear, as ±1 times the
// weight: the history is data, and a branch on each of its bits is one
// the host mispredicts about as often as the simulated branch does.
func (p *Perceptron) Step(pc uint64, taken bool) bool {
	w := p.row(pc)
	s := int32(w[0])
	h := p.ghist
	for i := 1; i < perceptronRow; i++ {
		s += int32(w[i]) * (int32(h&1)<<1 - 1)
		h >>= 1
	}
	var t uint64
	if taken {
		t = 1
	}
	if (s >= 0) != taken || max(s, -s) <= perceptronTheta {
		// Each weight moves one step, saturating, towards agreement of
		// its history bit with the outcome; the bias agrees when taken.
		w[0] = sat8(int32(w[0]) + int32(t)<<1 - 1)
		h = p.ghist
		for i := 1; i < perceptronRow; i++ {
			w[i] = sat8(int32(w[i]) + 1 - int32((h^t)&1)<<1)
			h >>= 1
		}
	}
	p.ghist = p.ghist<<1 | t
	return s >= 0
}

func sat8(v int32) int8 { return int8(min(max(v, -128), 127)) }

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	clear(p.weights)
	p.ghist = 0
}

package bpred

import (
	"fmt"
	"math/rand"
	"testing"
)

// refPerceptron is the perceptron as it was before its weights became
// one flat array and its sum and update lost their per-bit branches,
// moved here verbatim as the oracle: a slice per row, an if per history
// bit.
type refPerceptron struct {
	name    string
	weights [][]int8 // rows × (histLen+1)
	mask    uint64
	histLen int
	theta   int32
	ghist   uint64
	lastSum int32
	size    int
}

// newRefPerceptron builds the reference at the given byte budget.
func newRefPerceptron(sizeBytes int) (*refPerceptron, error) {
	if sizeBytes <= 0 || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("bpred: perceptron size %dB not a power of two", sizeBytes)
	}
	histLen := 24
	rows := sizeBytes / (histLen + 1)
	// Round rows down to a power of two.
	p := 1
	for p*2 <= rows {
		p *= 2
	}
	rows = p
	w := make([][]int8, rows)
	for i := range w {
		w[i] = make([]int8, histLen+1)
	}
	return &refPerceptron{
		name:    fmt.Sprintf("perceptron-%dKB", sizeBytes/1024),
		weights: w,
		mask:    uint64(rows - 1),
		histLen: histLen,
		theta:   int32(1.93*float64(histLen) + 14),
		size:    rows * (histLen + 1) * 8,
	}, nil
}

// Name implements Predictor.
func (p *refPerceptron) Name() string { return p.name }

func (p *refPerceptron) row(pc uint64) []int8 {
	return p.weights[((pc>>2)^(pc>>13))&p.mask]
}

func (p *refPerceptron) sum(pc uint64) int32 {
	w := p.row(pc)
	s := int32(w[0])
	for i := 0; i < p.histLen; i++ {
		if p.ghist>>uint(i)&1 == 1 {
			s += int32(w[i+1])
		} else {
			s -= int32(w[i+1])
		}
	}
	return s
}

// Predict implements Predictor.
func (p *refPerceptron) Predict(pc uint64) bool {
	p.lastSum = p.sum(pc)
	return p.lastSum >= 0
}

// Update implements Predictor.
func (p *refPerceptron) Update(pc uint64, taken bool) {
	pred := p.lastSum >= 0
	mag := p.lastSum
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		w := p.row(pc)
		adj := func(v int8, agree bool) int8 {
			if agree {
				if v < 127 {
					return v + 1
				}
				return v
			}
			if v > -128 {
				return v - 1
			}
			return v
		}
		w[0] = adj(w[0], taken)
		for i := 0; i < p.histLen; i++ {
			hbit := p.ghist>>uint(i)&1 == 1
			w[i+1] = adj(w[i+1], hbit == taken)
		}
	}
	p.ghist <<= 1
	if taken {
		p.ghist |= 1
	}
}

// Reset implements Predictor.
func (p *refPerceptron) Reset() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
	p.ghist = 0
	p.lastSum = 0
}

// TestPerceptronMatchesRef: the flat, branch-free perceptron is the
// row-sliced one bit for bit — every prediction of its one-call Step
// against the reference's Predict then Update, and after every branch
// every weight and the history — at both
// budgets NewByName builds, on streams with few pcs (weights saturate)
// and many (rows alias), and across a Reset.
func TestPerceptronMatchesRef(t *testing.T) {
	for _, size := range []int{8 << 10, 64 << 10} {
		for _, pcs := range []int{3, 5000} {
			p, err := NewPerceptron(size)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefPerceptron(size)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != ref.Name() || storageBits(p) != ref.size {
				t.Fatalf("%s %d bits, reference %s %d bits", p.Name(), storageBits(p), ref.Name(), ref.size)
			}
			rng := rand.New(rand.NewSource(int64(size + pcs)))
			bias := make([]int, pcs)
			for i := range bias {
				bias[i] = rng.Intn(101)
			}
			bias[0] = 50 // a coin flip trains on every branch: its weights walk to the rails
			for i := 0; i < 60_000; i++ {
				if i == 40_000 {
					p.Reset()
					ref.Reset()
				}
				site := rng.Intn(pcs)
				pc := uint64(0x400000 + site*16)
				taken := rng.Intn(100) < bias[site]
				got, want := p.Step(pc, taken), ref.Predict(pc)
				ref.Update(pc, taken)
				if got != want {
					t.Fatalf("%s, %d pcs, branch %d: predicted %v, reference %v", p.Name(), pcs, i, got, want)
				}
				if p.ghist != ref.ghist {
					t.Fatalf("%s, %d pcs, branch %d: history %#x, reference %#x", p.Name(), pcs, i, p.ghist, ref.ghist)
				}
				// The row just trained after every update; the whole
				// table (a write to any other row) every 500.
				lo := int(((pc >> 2) ^ (pc >> 13)) & ref.mask)
				hi := lo + 1
				if i%500 == 0 {
					lo, hi = 0, len(ref.weights)
				}
				for r := lo; r < hi; r++ {
					for j, w := range ref.weights[r] {
						if got := p.weights[r*perceptronRow+j]; got != w {
							t.Fatalf("%s, %d pcs, branch %d: weight [%d][%d] = %d, reference %d", p.Name(), pcs, i, r, j, got, w)
						}
					}
				}
			}
		}
	}
}

// TestSat8: one step from any weight lands where the reference's
// compare-and-step put it, rails included.
func TestSat8(t *testing.T) {
	for v := int32(-128); v <= 127; v++ {
		if got, want := sat8(v+1), int8(min(v+1, 127)); got != want {
			t.Errorf("sat8(%d+1) = %d, want %d", v, got, want)
		}
		if got, want := sat8(v-1), int8(max(v-1, -128)); got != want {
			t.Errorf("sat8(%d-1) = %d, want %d", v, got, want)
		}
	}
}

// TestPerceptronRails holds the word path to the reference where
// saturation decides the step: one row is put at +127, then at −128,
// then at +127 again, and stepped 400 times from each. Before every
// step the row is written afresh, each weight at the rail, one step off
// it or anywhere, so that the weights a step pushes into their rail sit
// in every byte of the three words and beside every other case; every
// other step takes the outcome the row mispredicts, so it trains. After
// every step every weight of the row, the prediction and the history
// must equal the reference's. The rows are written, not trained: no
// step trains a row whose weights all agree with its history, so a row
// at a rail is reached through Step only weight by weight.
func TestPerceptronRails(t *testing.T) {
	p, err := NewPerceptron(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefPerceptron(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	const pc = 0x401230
	r := int(((pc >> 2) ^ (pc >> 13)) & ref.mask)
	rng := rand.New(rand.NewSource(7))
	railed := 0 // weights a training step pushed into their rail
	for _, rail := range []int8{127, -128, 127} {
		off := rail - 1
		if rail < 0 {
			off = rail + 1
		}
		for i := 0; i < 400; i++ {
			for j := range ref.weights[r] {
				w := rail
				switch rng.Intn(4) {
				case 0:
					w = off
				case 1:
					w = int8(rng.Intn(256))
				}
				ref.weights[r][j], p.weights[r*perceptronRow+j] = w, w
			}
			h := rng.Uint64()
			switch i % 5 { // whole words of agreement as well as mixed bytes
			case 1:
				h = ^uint64(0)
			case 2:
				h = 0
			}
			p.ghist, ref.ghist = h, h
			want := ref.Predict(pc)
			taken := !want
			if i%2 == 1 {
				taken = rng.Intn(2) == 0
			}
			if want != taken || max(ref.lastSum, -ref.lastSum) <= perceptronTheta {
				for j, w := range ref.weights[r][1:] {
					if w == rail && (h>>j&1 == 1) == (taken == (rail > 0)) {
						railed++
					}
				}
			}
			got := p.Step(pc, taken)
			ref.Update(pc, taken)
			if got != want || p.ghist != ref.ghist {
				t.Fatalf("rail %d, step %d: predicted %v, history %#x; reference %v, %#x", rail, i, got, p.ghist, want, ref.ghist)
			}
			for j, w := range ref.weights[r] {
				if got := p.weights[r*perceptronRow+j]; got != w {
					t.Fatalf("rail %d, step %d: weight %d = %d, reference %d", rail, i, j, got, w)
				}
			}
		}
	}
	if railed < 1000 {
		t.Fatalf("training pushed %d weights into their rail, want the rails exercised", railed)
	}
}

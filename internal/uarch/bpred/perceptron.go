package bpred

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Perceptron is a hashed perceptron predictor (Jiménez & Lin), included
// as an extension ablation: a third predictor family at equal budget to
// compare against Gshare and TAGE.
type Perceptron struct {
	name    string
	weights []int8 // rows × perceptronRow, one row after another
	mask    uint64
	ghist   uint64
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
	}, nil
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// row returns pc's weights: the bias, then one weight per history bit.
func (p *Perceptron) row(pc uint64) *[perceptronRow]int8 {
	i := int(((pc>>2)^(pc>>13))&p.mask) * perceptronRow
	return (*[perceptronRow]int8)(p.weights[i:])
}

// Step implements Predictor. The 24 history weights are worked eight
// to a 64-bit word, each byte biased by 128 into 0..255, and the
// history byte that goes with a word expands to a byte mask (setBytes).
// With b = w + 128 the sum is
//
//	w0 + Σ_set w − Σ_clear w = w0 + 2·Σ_set b − Σ_all b + 128·(24 − 2·|set|)
//
// all of it exact integer arithmetic: a byte-sum adds lanes of 16 bits
// that cannot overflow. Training moves each byte one step, +1 where its
// history bit agrees with the outcome and −1 where it does not, except
// at the rails (255 and 0); the rails are found with exact zero-byte
// masks, so no carry or borrow crosses into the next byte.
func (p *Perceptron) Step(pc uint64, taken bool) bool {
	w := p.row(pc)
	b := (*[perceptronRow]byte)(unsafe.Pointer(w))
	var x [3]uint64
	var all, set uint64
	for k := range x {
		x[k] = binary.LittleEndian.Uint64(b[1+8*k:]) ^ bias8
		m := setBytes[uint8(p.ghist>>(8*k))]
		all += x[k]&lanes16 + x[k]>>8&lanes16
		y := x[k] & m
		set += y&lanes16 + y>>8&lanes16
	}
	n := bits.OnesCount32(uint32(p.ghist) & (1<<perceptronHist - 1))
	s := int32(w[0]) + 2*int32(set*sumLanes>>48) - int32(all*sumLanes>>48) + 128*int32(perceptronHist-2*n)
	var t uint64
	if taken {
		t = 1
	}
	if (s >= 0) != taken || max(s, -s) <= perceptronTheta {
		// Each weight moves one step, saturating, towards agreement of
		// its history bit with the outcome; the bias agrees when taken.
		w[0] = sat8(int32(w[0]) + int32(t)<<1 - 1)
		for k := range x {
			agree := setBytes[uint8(p.ghist>>(8*k))] ^ (t - 1) // t = 0 flips it
			up := agree & ones8 &^ zeroBytes(^x[k])
			down := ^agree & ones8 &^ zeroBytes(x[k])
			binary.LittleEndian.PutUint64(b[1+8*k:], (x[k]+up-down)^bias8)
		}
	}
	p.ghist = p.ghist<<1 | t
	return s >= 0
}

const (
	ones8    = 0x0101010101010101
	bias8    = 0x80 * ones8
	lanes16  = 0x00ff00ff00ff00ff
	sumLanes = 0x0001000100010001 // times four 16-bit lanes: their sum in the top lane
)

// setBytes[h] has byte i all ones where bit i of h is set.
var setBytes = func() (t [256]uint64) {
	for h := range t {
		for i := range 8 {
			if h>>i&1 != 0 {
				t[h] |= 0xff << (8 * i)
			}
		}
	}
	return t
}()

// zeroBytes returns 1 in each byte of x that is zero and 0 elsewhere,
// exactly: adding 0x7f to a byte's low seven bits sets its top bit
// unless they are all clear, and never carries out of the byte, so no
// byte's answer depends on another's.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f * ones8
	return ^((x&low7 + low7) | x | low7) >> 7
}

func sat8(v int32) int8 { return int8(min(max(v, -128), 127)) }

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	clear(p.weights)
	p.ghist = 0
}

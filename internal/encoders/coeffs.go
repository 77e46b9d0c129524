package encoders

import (
	"fmt"
	"math/bits"

	"vcprof/internal/codec"
	"vcprof/internal/codec/entropy"
	"vcprof/internal/trace"
)

// Syntax-element call sites of the inlined boolean coder.
var (
	pcSynCBF   = trace.Site("syntax/cbf")
	pcSynEOB   = trace.Site("syntax/eob")
	pcSynZero  = trace.Sites("syntax/zero", 3)
	pcSynSign  = trace.Site("syntax/sign")
	pcSynGt1   = trace.Site("syntax/gt1")
	pcSynMag   = trace.Site("syntax/mag")
	pcSynMV    = trace.Sites("syntax/mv", 2)
	pcSynPart  = trace.Site("syntax/partition")
	pcSynMode  = trace.Site("syntax/mode")
	pcSynSkip  = trace.Site("syntax/skip")
	pcSynInter = trace.Site("syntax/inter")
)

// probModel holds the adaptive probability contexts of one entropy
// partition (a segment or tile), mirroring how real codecs keep
// per-tile context state.
type probModel struct {
	skip     entropy.Prob
	interFlg entropy.Prob
	cbf      entropy.Prob
	partNone [4]entropy.Prob // per depth
	zero     [3]entropy.Prob // per coefficient band
	gt1      entropy.Prob
	magPfx   entropy.Prob
	eobBits  [10]entropy.Prob
	mvPfx    [2]entropy.Prob
	sign     entropy.Prob
}

// newProbModel returns contexts initialized to the uninformed prior.
func newProbModel() *probModel {
	pm := &probModel{}
	pm.skip = entropy.DefaultProb
	pm.interFlg = entropy.DefaultProb
	pm.cbf = entropy.DefaultProb
	pm.gt1 = entropy.DefaultProb
	pm.magPfx = entropy.DefaultProb
	pm.sign = entropy.DefaultProb
	for i := range pm.partNone {
		pm.partNone[i] = entropy.DefaultProb
	}
	for i := range pm.zero {
		pm.zero[i] = entropy.DefaultProb
	}
	for i := range pm.eobBits {
		pm.eobBits[i] = entropy.DefaultProb
	}
	for i := range pm.mvPfx {
		pm.mvPfx[i] = entropy.DefaultProb
	}
	return pm
}

// scanTables holds the diagonal scan of each transform size, n = 4, 8,
// 16 and 32 in turn.
var scanTables = [...][]int{zigzag(4), zigzag(8), zigzag(16), zigzag(32)}

// scanOrder returns the diagonal (zigzag) scan for an n×n block, or nil
// for a size no transform has.
func scanOrder(n int) []int {
	if i := bits.Len(uint(n)) - 3; i >= 0 && i < len(scanTables) && len(scanTables[i]) == n*n {
		return scanTables[i]
	}
	return nil
}

// zigzag orders an n×n block's coefficients by anti-diagonal, which
// front-loads the low-frequency coefficients so end-of-block indices
// stay small.
func zigzag(n int) []int {
	order := make([]int, 0, n*n)
	for d := 0; d <= 2*(n-1); d++ {
		if d%2 == 0 {
			for y := min(d, n-1); y >= 0 && d-y < n; y-- {
				order = append(order, y*n+(d-y))
			}
		} else {
			for x := min(d, n-1); x >= 0 && d-x < n; x-- {
				order = append(order, (d-x)*n+x)
			}
		}
	}
	return order
}

func coefBand(i int) int {
	switch {
	case i < 4:
		return 0
	case i < 16:
		return 1
	default:
		return 2
	}
}

// writeUnsigned codes v >= 0 as an adaptive Exp-Golomb-style code: the
// bit-length of v+1 in unary under pfx, then the low bits flat.
func writeUnsigned(enc *entropy.Encoder, pfx *entropy.Prob, v uint32) {
	n := bits.Len32(v + 1)
	for i := 0; i < n-1; i++ {
		enc.BitAdaptive(1, pfx)
	}
	enc.BitAdaptive(0, pfx)
	if n > 1 {
		enc.Literal((v+1)&((1<<uint(n-1))-1), n-1)
	}
}

func readUnsigned(dec *entropy.Decoder, pfx *entropy.Prob) uint32 {
	n := 1
	for dec.BitAdaptive(pfx) == 1 {
		n++
		if n > 32 {
			return 0 // corrupt stream; bounded
		}
	}
	if n == 1 {
		return 0
	}
	low := dec.Literal(n - 1)
	return (1<<uint(n-1) | low) - 1
}

// writeCoefBlock entropy-codes an n×n block of quantized levels:
// coded-block flag, end-of-block index, then per-coefficient zero flag,
// sign and magnitude in zigzag order. The block is one writer of enc.
func writeCoefBlock(enc *entropy.Encoder, pm *probModel, levels []int32, n int) error {
	scan := scanOrder(n)
	if scan == nil {
		return fmt.Errorf("encoders: no scan order for %d×%d blocks", n, n)
	}
	if len(levels) < n*n {
		return fmt.Errorf("encoders: coef block %d×%d but %d levels", n, n, len(levels))
	}
	eob := 0
	for i, idx := range scan {
		if levels[idx] != 0 {
			eob = i + 1
		}
	}
	enc.Begin()
	if eob == 0 {
		enc.SetSite(pcSynCBF)
		enc.BitAdaptive(0, &pm.cbf)
		enc.End()
		return nil
	}
	enc.SetSite(pcSynCBF)
	enc.BitAdaptive(1, &pm.cbf)
	eobBits := bits.Len32(uint32(n*n - 1))
	enc.SetSite(pcSynEOB)
	for i := eobBits - 1; i >= 0; i-- {
		enc.BitAdaptive(int(uint32(eob-1)>>uint(i))&1, &pm.eobBits[i])
	}
	for i := 0; i < eob; i++ {
		l := levels[scan[i]]
		band := coefBand(i)
		if l == 0 {
			enc.SetSite(pcSynZero[band])
			enc.BitAdaptive(1, &pm.zero[band])
			continue
		}
		enc.SetSite(pcSynZero[band])
		enc.BitAdaptive(0, &pm.zero[band])
		sign := 0
		m := uint32(l)
		if l < 0 {
			sign = 1
			m = uint32(-l)
		}
		enc.SetSite(pcSynSign)
		enc.BitAdaptive(sign, &pm.sign)
		enc.SetSite(pcSynGt1)
		if m == 1 {
			enc.BitAdaptive(0, &pm.gt1)
		} else {
			enc.BitAdaptive(1, &pm.gt1)
			enc.SetSite(pcSynMag)
			writeUnsigned(enc, &pm.magPfx, m-2)
		}
	}
	enc.SetSite(0)
	enc.End()
	return nil
}

// readCoefBlock decodes a block written by writeCoefBlock.
func readCoefBlock(dec *entropy.Decoder, pm *probModel, n int) ([]int32, error) {
	levels := make([]int32, n*n)
	if dec.BitAdaptive(&pm.cbf) == 0 {
		return levels, nil
	}
	scan := scanOrder(n)
	if scan == nil {
		return nil, fmt.Errorf("encoders: no scan order for %d×%d blocks", n, n)
	}
	eobBits := bits.Len32(uint32(n*n - 1))
	eob := 0
	for i := eobBits - 1; i >= 0; i-- {
		eob = eob<<1 | dec.BitAdaptive(&pm.eobBits[i])
	}
	eob++
	if eob > n*n {
		return nil, fmt.Errorf("encoders: decoded eob %d exceeds block size %d", eob, n*n)
	}
	for i := 0; i < eob; i++ {
		if dec.BitAdaptive(&pm.zero[coefBand(i)]) == 1 {
			continue
		}
		sign := dec.BitAdaptive(&pm.sign)
		var m uint32
		if dec.BitAdaptive(&pm.gt1) == 0 {
			m = 1
		} else {
			m = readUnsigned(dec, &pm.magPfx) + 2
		}
		v := int32(m)
		if sign == 1 {
			v = -v
		}
		levels[scan[i]] = v
	}
	return levels, dec.Err()
}

// writeMV codes a motion vector as a delta from pred.
func writeMV(enc *entropy.Encoder, pm *probModel, mv, pred codec.MV) {
	for i, d := range [2]int32{int32(mv.X) - int32(pred.X), int32(mv.Y) - int32(pred.Y)} {
		u := uint32(d<<1) ^ uint32(d>>31) // zigzag signed→unsigned
		enc.SetSite(pcSynMV[i])
		writeUnsigned(enc, &pm.mvPfx[i], u)
	}
	enc.SetSite(0)
}

// readMV decodes a motion vector coded by writeMV.
func readMV(dec *entropy.Decoder, pm *probModel, pred codec.MV) codec.MV {
	var comp [2]int32
	for i := range comp {
		u := readUnsigned(dec, &pm.mvPfx[i])
		comp[i] = int32(u>>1) ^ -int32(u&1)
	}
	return codec.MV{X: pred.X + int16(comp[0]), Y: pred.Y + int16(comp[1])}
}

// Package quant implements quantizer derivation from CRF-style quality
// indices, dead-zone scalar quantization of transform coefficients, and
// the matching dequantizer.
package quant

import (
	"fmt"
	"math"

	"vcprof/internal/trace"
)

// MaxQIndex is the top of the quantizer-index scale (AV1-style 0..255).
const MaxQIndex = 255

// StepSize converts a quantizer index into a quantization step size.
// The mapping is exponential like the AV1/VP9 lookup tables: every 24
// index points double the step, anchored so qindex 0 is near-lossless.
func StepSize(qindex int) (float64, error) {
	if err := checkQIndex(qindex); err != nil {
		return 0, err
	}
	return 0.8 * math.Exp2(float64(qindex)/24), nil
}

func checkQIndex(qindex int) error {
	if qindex < 0 || qindex > MaxQIndex {
		return fmt.Errorf("quant: qindex %d out of range [0, %d]", qindex, MaxQIndex)
	}
	return nil
}

// steps holds, per qindex, the fixed-point forms of StepSize that the
// quantizer pair uses, so no block pays for math.Exp2: the reciprocal
// (hardware-friendly quantizers multiply rather than divide), the
// dead-zone rounding offset (~3/8 step) and the 8.8 dequantizer step.
var steps = func() (t [MaxQIndex + 1]struct{ inv, round, stepFx int64 }) {
	for qi := range t {
		step, _ := StepSize(qi)
		t[qi].inv = int64(math.Round((1 << 16) / step))
		t[qi].round = int64(math.Round(step * 0.375))
		t[qi].stepFx = int64(math.Round(step * 256))
	}
	return t
}()

var (
	pcQuantLoop   = trace.Sites("quant.Quantize/coefloop", 4)
	pcQuantNZ     = trace.Sites("quant.Quantize/nonzero", 4)
	pcDequantLoop = trace.Sites("quant.Dequantize/coefloop", 4)
	fnQuantize    = trace.Func("quant.Quantize")
)

// quantClass selects the per-transform-size kernel specialization.
func quantClass(n int) int {
	switch {
	case n <= 16:
		return 0
	case n <= 64:
		return 1
	case n <= 256:
		return 2
	}
	return 3
}

// Quantize applies dead-zone quantization: level = sign ·
// floor((|coef| + round) / step) with round = step·deadzone. It returns
// the number of nonzero levels. coefs and levels must have equal length
// and may alias.
func Quantize(tc *trace.Ctx, coefs []int32, qindex int, levels []int32) (nonzero int, err error) {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	if len(levels) != len(coefs) {
		return 0, fmt.Errorf("quant: levels length %d != coefs length %d", len(levels), len(coefs))
	}
	if err := checkQIndex(qindex); err != nil {
		return 0, err
	}
	tc.Enter(fnQuantize)
	defer tc.Leave()
	inv, round := steps[qindex].inv, steps[qindex].round
	levels = levels[:len(coefs)]
	nz := 0 // a register: the deferred Leave keeps nonzero in memory
	for i, c := range coefs {
		m := int64(c >> 31) // -1 for a negative coefficient, else 0
		l := (((int64(c) ^ m) - m) + round) * inv >> 16
		nz += int(uint64(-l) >> 63) // l >= 0: 1 unless it is zero
		levels[i] = int32((l ^ m) - m)
	}
	nonzero = nz
	// The kernel is fully vectorized (abs, madd, shift, sign restore,
	// nonzero population count); like production quantizers it has no
	// per-coefficient branch — the data-dependent branches happen later,
	// in entropy coding of the levels.
	n := len(coefs)
	qc := quantClass(n)
	tc.Loads(pcQuantLoop[qc], trace.ScratchBase, n/8+1, 8, 8)
	tc.Stores(pcQuantLoop[qc], trace.ScratchBase+0x400, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/4+1)
	tc.Op(trace.OpOther, n/8+4)
	// One residual branch: was anything nonzero (sets the coded flag).
	tc.Branch(pcQuantNZ[qc], nonzero != 0)
	tc.Loop(pcQuantLoop[qc], n/32+1)
	return nonzero, nil
}

// Dequantize reconstructs coefficients from levels. levels and coefs
// must have equal length and may alias.
func Dequantize(tc *trace.Ctx, levels []int32, qindex int, coefs []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	if len(levels) != len(coefs) {
		return fmt.Errorf("quant: coefs length %d != levels length %d", len(coefs), len(levels))
	}
	if err := checkQIndex(qindex); err != nil {
		return err
	}
	stepFx := steps[qindex].stepFx
	coefs = coefs[:len(levels)]
	for i, l := range levels {
		coefs[i] = int32(int64(l) * stepFx >> 8)
	}
	n := len(levels)
	qc := quantClass(n)
	tc.Loads(pcDequantLoop[qc], trace.ScratchBase+0x800, n/8+1, 8, 8)
	tc.Stores(pcDequantLoop[qc], trace.ScratchBase+0xC00, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/8+1)
	tc.Op(trace.OpOther, n/16+2)
	tc.Loop(pcDequantLoop[qc], n/32+1)
	return nil
}

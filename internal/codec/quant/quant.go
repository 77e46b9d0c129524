// Package quant implements quantizer derivation from CRF-style quality
// indices, dead-zone scalar quantization of transform coefficients, and
// the matching dequantizer.
package quant

import (
	"fmt"
	"math"

	"vcprof/internal/codec/kernel"
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
	if len(levels) != len(coefs) {
		return 0, fmt.Errorf("quant: levels length %d != coefs length %d", len(levels), len(coefs))
	}
	if err := checkQIndex(qindex); err != nil {
		return 0, err
	}
	nonzero = kernel.Quantize(coefs, steps[qindex].inv, steps[qindex].round, levels)
	// The kernel is fully vectorized (abs, madd, shift, sign restore,
	// nonzero population count); like production quantizers it has no
	// per-coefficient branch — the data-dependent branches happen later,
	// in entropy coding of the levels. One residual branch: was anything
	// nonzero (sets the coded flag).
	n := len(coefs)
	if t := tc.Tally(trace.StageQuant); t.Ok() {
		t.Add(trace.OpLoad, n/8+1)
		t.Add(trace.OpStore, n/8+1)
		t.Add(trace.OpAVX, n/4+1)
		t.Add(trace.OpOther, n/8+4)
		t.Add(trace.OpBranch, 1+n/32+1) // the coded flag, then the loop
	} else if tc != nil {
		reportQuantize(tc, n, nonzero != 0)
	}
	return nonzero, nil
}

// reportQuantize is Quantize's event sequence on a hooked context.
func reportQuantize(tc *trace.Ctx, n int, coded bool) {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	tc.Enter(fnQuantize)
	defer tc.Leave()
	qc := quantClass(n)
	tc.Loads(pcQuantLoop[qc], trace.ScratchBase, n/8+1, 8, 8)
	tc.Stores(pcQuantLoop[qc], trace.ScratchBase+0x400, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/4+1)
	tc.Op(trace.OpOther, n/8+4)
	tc.Branch(pcQuantNZ[qc], coded)
	tc.Loop(pcQuantLoop[qc], n/32+1)
}

// Dequantize reconstructs coefficients from levels. levels and coefs
// must have equal length and may alias.
func Dequantize(tc *trace.Ctx, levels []int32, qindex int, coefs []int32) error {
	if len(levels) != len(coefs) {
		return fmt.Errorf("quant: coefs length %d != levels length %d", len(coefs), len(levels))
	}
	if err := checkQIndex(qindex); err != nil {
		return err
	}
	kernel.Dequantize(levels, steps[qindex].stepFx, coefs)
	n := len(levels)
	if t := tc.Tally(trace.StageQuant); t.Ok() {
		t.Add(trace.OpLoad, n/8+1)
		t.Add(trace.OpStore, n/8+1)
		t.Add(trace.OpAVX, n/8+1)
		t.Add(trace.OpOther, n/16+2)
		t.Add(trace.OpBranch, n/32+1)
	} else if tc != nil {
		reportDequantize(tc, n)
	}
	return nil
}

// reportDequantize is Dequantize's event sequence on a hooked context.
func reportDequantize(tc *trace.Ctx, n int) {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	qc := quantClass(n)
	tc.Loads(pcDequantLoop[qc], trace.ScratchBase+0x800, n/8+1, 8, 8)
	tc.Stores(pcDequantLoop[qc], trace.ScratchBase+0xC00, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/8+1)
	tc.Op(trace.OpOther, n/16+2)
	tc.Loop(pcDequantLoop[qc], n/32+1)
}

package quant

import (
	"fmt"
	"math"

	"vcprof/internal/trace"
)

// refQuantize and refDequantize are the quantizer pair as it shipped
// before the per-qindex table, moved here verbatim (identifiers
// prefixed): each call re-derives the step from StepSize and restores
// signs with a branch. They are the oracle of the differential tests.

func refQuantize(tc *trace.Ctx, coefs []int32, qindex int, levels []int32) (nonzero int, err error) {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	if len(levels) != len(coefs) {
		return 0, fmt.Errorf("quant: levels length %d != coefs length %d", len(levels), len(coefs))
	}
	step, err := StepSize(qindex)
	if err != nil {
		return 0, err
	}
	tc.Enter(fnQuantize)
	defer tc.Leave()
	// Fixed-point reciprocal multiply, as hardware-friendly quantizers do.
	inv := int64(math.Round((1 << 16) / step))
	round := int64(math.Round(step * 0.375 * float64(1))) // dead zone ~3/8 step
	for i, c := range coefs {
		neg := c < 0
		a := int64(c)
		if neg {
			a = -a
		}
		l := (a + round) * inv >> 16
		if l != 0 {
			nonzero++
		}
		if neg {
			l = -l
		}
		levels[i] = int32(l)
	}
	n := len(coefs)
	qc := quantClass(n)
	tc.Loads(pcQuantLoop[qc], trace.ScratchBase, n/8+1, 8, 8)
	tc.Stores(pcQuantLoop[qc], trace.ScratchBase+0x400, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/4+1)
	tc.Op(trace.OpOther, n/8+4)
	tc.Branch(pcQuantNZ[qc], nonzero != 0)
	tc.Loop(pcQuantLoop[qc], n/32+1)
	return nonzero, nil
}

func refDequantize(tc *trace.Ctx, levels []int32, qindex int, coefs []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageQuant))
	if len(levels) != len(coefs) {
		return fmt.Errorf("quant: coefs length %d != levels length %d", len(coefs), len(levels))
	}
	step, err := StepSize(qindex)
	if err != nil {
		return err
	}
	stepFx := int64(math.Round(step * 256))
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

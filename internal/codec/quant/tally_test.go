package quant

import (
	"fmt"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/trace/tracetest"
)

// TestQuantCountsWhatItRecords: Quantize, then Dequantize of its
// levels, at every qindex on each input of the reference wall at 16, 64,
// 256 and 1024 coefficients, and every input the pair rejects, return
// and count on a count-only context what they record.
func TestQuantCountsWhatItRecords(t *testing.T) {
	type out struct {
		levels, rec []int32
		nz          int
		qerr, dqerr error
	}
	run := func(tc *trace.Ctx, coefs []int32, qi int, levels, rec []int32) out {
		nz, qerr := Quantize(tc, coefs, qi, levels)
		return out{levels, rec, nz, qerr, Dequantize(tc, levels, qi, rec)}
	}
	for _, n := range []int{16, 64, 256, 1024} {
		for name, coefs := range quantBlocks(n) {
			for qi := 0; qi <= MaxQIndex; qi++ {
				tracetest.CountMatchesRecorded(t, fmt.Sprintf("n=%d/%s/qindex=%d", n, name, qi), trace.StageEntropy, func(tc *trace.Ctx) out {
					return run(tc, coefs, qi, make([]int32, n), make([]int32, n))
				})
			}
		}
	}
	buf := make([]int32, 64)
	for _, c := range []struct {
		qi        int
		out       []int32
		rejection string
	}{{-1, buf, "qindex -1"}, {256, buf, "qindex 256"}, {10, buf[:63], "length mismatch"}} {
		tracetest.CountMatchesRecorded(t, c.rejection, trace.StageEntropy, func(tc *trace.Ctx) out {
			return run(tc, buf, c.qi, c.out, c.out)
		})
	}
}

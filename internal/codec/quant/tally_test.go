package quant

import (
	"fmt"
	"reflect"
	"testing"

	"vcprof/internal/trace"
)

// countMatchesRecorded runs f on a count-only context and on a
// recording one, each entered in a stage the quantizer does not use,
// then reports one probe op to whatever stage is active. It fails unless
// both runs return the same output and count the same Mix, stage counts
// and total: the count-only path adds what the events add, to the
// quantizer's stage, and leaves the caller's stage as it found it.
func countMatchesRecorded[T any](t *testing.T, id string, f func(*trace.Ctx) T) {
	t.Helper()
	count, rec := trace.New(), trace.New()
	rec.AttachRecorder(&trace.Recorder{})
	var outs [2]T
	for i, tc := range []*trace.Ctx{count, rec} {
		tc.BeginStage(trace.StageEntropy)
		outs[i] = f(tc)
		tc.Op(trace.OpOther, 1)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("%s: count-only output %v, recorded %v", id, outs[0], outs[1])
	}
	if count.Mix != rec.Mix || count.StageCounts() != rec.StageCounts() || count.Total() != rec.Total() {
		t.Fatalf("%s: count-only mix %v stages %v, recorded %v %v", id, count.Mix, count.StageCounts(), rec.Mix, rec.StageCounts())
	}
}

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
				countMatchesRecorded(t, fmt.Sprintf("n=%d/%s/qindex=%d", n, name, qi), func(tc *trace.Ctx) out {
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
		countMatchesRecorded(t, c.rejection, func(tc *trace.Ctx) out {
			return run(tc, buf, c.qi, c.out, c.out)
		})
	}
}

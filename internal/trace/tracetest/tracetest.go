// Package tracetest holds the check the count-only walls share: a
// kernel or coder run on a count-only context must count what it
// records. Only tests import it.
package tracetest

import (
	"reflect"
	"testing"

	"vcprof/internal/trace"
)

// CountMatchesRecorded runs f on a count-only context and on a
// recording one, each entered in stage outer (one the code under test
// does not use), then reports one probe op to whatever stage is active.
// It fails unless both runs return the same output and count the same
// Mix, stage counts and total: the count-only path adds what the events
// add, to the code's own stage, and leaves the caller's stage as it
// found it.
func CountMatchesRecorded[T any](tb testing.TB, id string, outer trace.Stage, f func(*trace.Ctx) T) {
	tb.Helper()
	count, rec := trace.New(), trace.New()
	rec.AttachRecorder(&trace.Recorder{})
	var outs [2]T
	for i, tc := range []*trace.Ctx{count, rec} {
		tc.BeginStage(outer)
		outs[i] = f(tc)
		tc.Op(trace.OpOther, 1)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		tb.Fatalf("%s: count-only output %v, recorded %v", id, outs[0], outs[1])
	}
	if count.Mix != rec.Mix || count.StageCounts() != rec.StageCounts() || count.Total() != rec.Total() {
		tb.Fatalf("%s: count-only mix %v stages %v, recorded %v %v", id, count.Mix, count.StageCounts(), rec.Mix, rec.StageCounts())
	}
}

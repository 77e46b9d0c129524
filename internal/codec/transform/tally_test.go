package transform

import (
	"fmt"
	"reflect"
	"testing"

	"vcprof/internal/trace"
)

// countMatchesRecorded runs f on a count-only context and on a
// recording one, each entered in a stage no kernel here uses, then
// reports one probe op to whatever stage is active. It fails unless
// both runs return the same output and count the same Mix, stage
// counts and total: the count-only path adds what the events add, to
// the kernel's stage, and leaves the caller's stage as it found it.
func countMatchesRecorded[T any](t *testing.T, id string, f func(*trace.Ctx) T) {
	t.Helper()
	count, rec := trace.New(), trace.New()
	rec.AttachRecorder(&trace.Recorder{})
	var outs [2]T
	for i, tc := range []*trace.Ctx{count, rec} {
		tc.BeginStage(trace.StageQuant)
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

// TestSATDCountsWhatItRecords: on every multiple-of-4 size pair up to
// 64×64, and on the sizes SATD rejects, the count-only SATD returns and
// counts what the recorded one does.
func TestSATDCountsWhatItRecords(t *testing.T) {
	type out struct {
		sum int32
		err error
	}
	for w := 4; w <= 64; w += 4 {
		for h := 4; h <= 64; h += 4 {
			res := satdBlocks(w, h)["dense"]
			countMatchesRecorded(t, fmt.Sprintf("%dx%d", w, h), func(tc *trace.Ctx) out {
				s, err := SATD(tc, res, w, h)
				return out{s, err}
			})
		}
	}
	for _, wh := range [][2]int{{3, 3}, {4, 6}, {0, 4}, {-4, 4}} {
		countMatchesRecorded(t, fmt.Sprint(wh), func(tc *trace.Ctx) out {
			s, err := SATD(tc, make([]int32, 64), wh[0], wh[1])
			return out{s, err}
		})
	}
}

// TestTransformsCountWhatTheyRecord: Forward and Inverse, every size
// and input of the reference wall, and a size they reject.
func TestTransformsCountWhatTheyRecord(t *testing.T) {
	type out struct {
		coefs []int32
		err   error
	}
	for _, dir := range []struct {
		name string
		f    func(*trace.Ctx, []int32, int, []int32) error
	}{{"Forward", Forward}, {"Inverse", Inverse}} {
		for _, n := range []int{4, 8, 16, 32} {
			for name, block := range diffBlocks(n) {
				countMatchesRecorded(t, fmt.Sprintf("%s/%d/%s", dir.name, n, name), func(tc *trace.Ctx) out {
					dst := make([]int32, n*n)
					err := dir.f(tc, block, n, dst)
					return out{dst, err}
				})
			}
		}
		countMatchesRecorded(t, dir.name+"/12", func(tc *trace.Ctx) out {
			err := dir.f(tc, make([]int32, 144), 12, make([]int32, 144))
			return out{nil, err}
		})
	}
}

// TestTransformsDoNotAllocate: Forward and Inverse allocate nothing,
// uninstrumented or counting.
func TestTransformsDoNotAllocate(t *testing.T) {
	for _, tc := range []*trace.Ctx{nil, trace.New()} {
		for _, n := range []int{4, 8, 16, 32} {
			src, dst := diffBlocks(n)["dense"], make([]int32, n*n)
			if a := testing.AllocsPerRun(50, func() { _ = Forward(tc, src, n, dst) }); a != 0 {
				t.Errorf("Forward %d (ctx %v): %v allocs a call", n, tc != nil, a)
			}
			if a := testing.AllocsPerRun(50, func() { _ = Inverse(tc, src, n, dst) }); a != 0 {
				t.Errorf("Inverse %d (ctx %v): %v allocs a call", n, tc != nil, a)
			}
		}
	}
}

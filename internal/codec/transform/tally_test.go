package transform

import (
	"fmt"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/trace/tracetest"
)

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
			tracetest.CountMatchesRecorded(t, fmt.Sprintf("%dx%d", w, h), trace.StageQuant, func(tc *trace.Ctx) out {
				s, err := SATD(tc, res, w, h)
				return out{s, err}
			})
		}
	}
	for _, wh := range [][2]int{{3, 3}, {4, 6}, {0, 4}, {-4, 4}} {
		tracetest.CountMatchesRecorded(t, fmt.Sprint(wh), trace.StageQuant, func(tc *trace.Ctx) out {
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
				tracetest.CountMatchesRecorded(t, fmt.Sprintf("%s/%d/%s", dir.name, n, name), trace.StageQuant, func(tc *trace.Ctx) out {
					dst := make([]int32, n*n)
					err := dir.f(tc, block, n, dst)
					return out{dst, err}
				})
			}
		}
		tracetest.CountMatchesRecorded(t, dir.name+"/12", trace.StageQuant, func(tc *trace.Ctx) out {
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

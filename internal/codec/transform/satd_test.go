package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"vcprof/internal/trace"
)

// recPair is a kernel and its oracle side by side, each reporting to its
// own recording context. check runs one call on each and fails unless
// both reported the same events: the same tape, Mix and stage counts.
type recPair struct {
	got, want         *trace.Ctx
	gotTape, wantTape *trace.Tape
}

func newRecPair() *recPair {
	g, w := &trace.Recorder{}, &trace.Recorder{}
	p := &recPair{trace.New(), trace.New(), &g.Tape, &w.Tape}
	p.got.AttachRecorder(g)
	p.want.AttachRecorder(w)
	return p
}

func (p *recPair) check(t *testing.T, id string, run func(got, want *trace.Ctx)) {
	t.Helper()
	start := p.gotTape.Total()
	run(p.got, p.want)
	if p.got.Mix != p.want.Mix || p.got.StageCounts() != p.want.StageCounts() {
		t.Fatalf("%s: mix %v stages %v, reference %v %v", id, p.got.Mix, p.got.StageCounts(), p.want.Mix, p.want.StageCounts())
	}
	n := p.gotTape.Total() - start
	if p.wantTape.Total() != p.gotTape.Total() ||
		!slices.Equal(p.gotTape.Window(start, n).MicroOps(), p.wantTape.Window(start, n).MicroOps()) {
		t.Fatalf("%s: the tape differs from the reference's", id)
	}
}

// satdBlocks returns the named w×h residuals of the SATD differential
// test: residual-range noise and extremes, ±2²⁰ and the int32 limits,
// where every add wraps.
func satdBlocks(w, h int) map[string][]int32 {
	s := uint64(w*h) * 0x9E3779B97F4A7C15
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	fill := func(f func(i int) int32) []int32 {
		b := make([]int32, w*h)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	pick := func(vs ...int32) func(int) int32 {
		return func(int) int32 { return vs[next()%uint64(len(vs))] }
	}
	return map[string][]int32{
		"zero":   fill(func(int) int32 { return 0 }),
		"dense":  fill(func(int) int32 { return int32(next()%511) - 255 }),
		"±255":   fill(pick(255, -255)),
		"±2^20":  fill(pick(1<<20, -(1 << 20))),
		"limits": fill(pick(math.MinInt32, math.MaxInt32, 0, -1)),
	}
}

var satdSizes = []int{4, 8, 16, 32, 64}

// TestSATDMatchesReference is the differential wall for SATD: on every
// size pair and input, the sum and every reported event equal the tile
// copying reference's.
func TestSATDMatchesReference(t *testing.T) {
	p := newRecPair()
	for _, w := range satdSizes {
		for _, h := range satdSizes {
			for name, res := range satdBlocks(w, h) {
				id := fmt.Sprintf("%dx%d/%s", w, h, name)
				var got, want int32
				p.check(t, id, func(gtc, wtc *trace.Ctx) {
					var gerr, werr error
					got, gerr = SATD(gtc, res, w, h)
					want, werr = refSATD(wtc, res, w, h)
					if gerr != nil || werr != nil {
						t.Fatalf("%s: errors %v, %v", id, gerr, werr)
					}
				})
				if got != want {
					t.Fatalf("%s: SATD %d, reference %d", id, got, want)
				}
			}
		}
	}
}

func TestSATDRejectsWhatTheReferenceRejects(t *testing.T) {
	res := make([]int32, 64)
	for _, wh := range [][2]int{{3, 3}, {4, 6}, {6, 4}, {0, 4}, {4, 0}, {-4, 4}} {
		p := newRecPair()
		p.check(t, fmt.Sprint(wh), func(gtc, wtc *trace.Ctx) {
			_, gerr := SATD(gtc, res, wh[0], wh[1])
			_, werr := refSATD(wtc, res, wh[0], wh[1])
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%dx%d: error %v, reference %v", wh[0], wh[1], gerr, werr)
			}
		})
	}
}

// TestSATDInstrumentation pins what an 8×8 SATD reports, as recorded
// before the straight-line rewrite: per 4×4 tile four loads, eight AVX,
// one SSE and two scalar ops; per row of tiles a two-iteration loop.
func TestSATDInstrumentation(t *testing.T) {
	want := trace.Mix{
		trace.OpLoad:   16,
		trace.OpAVX:    32,
		trace.OpSSE:    4,
		trace.OpOther:  8,
		trace.OpBranch: 4,
	}
	for _, tc := range []*trace.Ctx{trace.New(), newRecPair().got} {
		if _, err := SATD(tc, satdBlocks(8, 8)["dense"], 8, 8); err != nil {
			t.Fatal(err)
		}
		var stages trace.StageCounts
		stages[trace.StageTransform] = want.Total()
		if tc.Mix != want || tc.StageCounts() != stages {
			t.Errorf("mix %v stages %v, want %v %v", tc.Mix, tc.StageCounts(), want, stages)
		}
	}
}

func TestSATDDoesNotAllocate(t *testing.T) {
	tc, res := trace.New(), satdBlocks(64, 64)["dense"]
	if n := testing.AllocsPerRun(100, func() { _, _ = SATD(tc, res, 64, 64) }); n != 0 {
		t.Errorf("SATD allocates %v times a call", n)
	}
}

// FuzzSATDVsRef: the first byte picks the size pair, and every four
// bytes after it are one little-endian int32 sample (missing samples
// are zero).
func FuzzSATDVsRef(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{6, 0xff, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff, 0xff})
	f.Add([]byte{24, 0x00, 0x00, 0x00, 0x80, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+4*64*64 {
			return
		}
		w, h := satdSizes[data[0]%5], satdSizes[data[0]/5%5]
		res := make([]int32, w*h)
		for i := range res {
			if 4*i+5 > len(data) {
				break
			}
			res[i] = int32(binary.LittleEndian.Uint32(data[1+4*i:]))
		}
		var got, want int32
		newRecPair().check(t, fmt.Sprintf("%dx%d", w, h), func(gtc, wtc *trace.Ctx) {
			got, _ = SATD(gtc, res, w, h)
			want, _ = refSATD(wtc, res, w, h)
		})
		if got != want {
			t.Fatalf("%dx%d: SATD %d, reference %d", w, h, got, want)
		}
	})
}

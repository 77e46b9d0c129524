package codec

import (
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

var blockSides = []int{4, 8, 16, 32, 64}

// blockInput is one input of the block kernels: current and predicted
// pixels, and a residual to add back to the prediction.
type blockInput struct {
	cur, pred []byte
	res       []int32
}

// blockInputs returns the named w×h inputs of the block kernels: "flat"
// is all zero, "edge" the ±255 differences, "noise" arbitrary pixels,
// and "clamp" and "limits" residuals that leave the pixel range on both
// sides, the latter out to the int32 limits.
func blockInputs(w, h int) map[string]blockInput {
	s := uint64(w*h) * 0x9E3779B97F4A7C15
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	px := func(f func(i int) byte) []byte {
		b := make([]byte, w*h)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	pick := func(vs ...int32) []int32 {
		b := make([]int32, w*h)
		for i := range b {
			b[i] = vs[next()%uint64(len(vs))]
		}
		return b
	}
	spread := func(r int32) []int32 { // uniform in [-r, r]
		b := make([]int32, w*h)
		for i := range b {
			b[i] = int32(next()%uint64(2*r+1)) - r
		}
		return b
	}
	noise := func(int) byte { return byte(next()) }
	return map[string]blockInput{
		"flat":   {px(func(int) byte { return 0 }), px(func(int) byte { return 0 }), pick(0)},
		"edge":   {px(func(i int) byte { return byte(255 * (i & 1)) }), px(func(i int) byte { return byte(255 * (1 - i&1)) }), pick(255, -255)},
		"noise":  {px(noise), px(noise), spread(255)},
		"clamp":  {px(noise), px(noise), spread(1024)},
		"limits": {px(noise), px(noise), pick(math.MinInt32, math.MaxInt32, math.MaxInt32-100, -256, 256, 1<<20)},
	}
}

// TestBlockKernelsMatchReference is the differential wall for Residual
// and Reconstruct: on every size pair and input, every output sample
// and every reported event equal the nested-loop reference's.
func TestBlockKernelsMatchReference(t *testing.T) {
	p := newRecPair()
	for _, w := range blockSides {
		for _, h := range blockSides {
			for name, in := range blockInputs(w, h) {
				id := fmt.Sprintf("%dx%d/%s", w, h, name)
				gres, wres := make([]int32, w*h), make([]int32, w*h)
				p.check(t, "Residual/"+id, func(gtc, wtc *trace.Ctx) {
					Residual(gtc, in.cur, in.pred, w, h, gres)
					refResidual(wtc, in.cur, in.pred, w, h, wres)
				})
				if !slices.Equal(gres, wres) {
					t.Fatalf("Residual/%s: %v, reference %v", id, gres, wres)
				}
				grec, wrec := make([]byte, w*h), make([]byte, w*h)
				p.check(t, "Reconstruct/"+id, func(gtc, wtc *trace.Ctx) {
					Reconstruct(gtc, in.pred, in.res, w, h, grec)
					refReconstruct(wtc, in.pred, in.res, w, h, wrec)
				})
				if !slices.Equal(grec, wrec) {
					t.Fatalf("Reconstruct/%s: %v, reference %v", id, grec, wrec)
				}
			}
		}
	}
}

// TestBlockKernelInstrumentation pins what an 8×8 Residual and
// Reconstruct report, as recorded before the flat rewrite: Residual 18
// loads, 9 stores, 9 AVX and 5 scalar ops; Reconstruct 18 loads, 18
// stores, 17 AVX and 5 scalar ops; each a two-iteration row loop.
func TestBlockKernelInstrumentation(t *testing.T) {
	want := trace.Mix{
		trace.OpLoad:   36,
		trace.OpStore:  27,
		trace.OpAVX:    26,
		trace.OpOther:  10,
		trace.OpBranch: 4,
	}
	in := blockInputs(8, 8)["clamp"]
	for _, tc := range []*trace.Ctx{trace.New(), newRecPair().got} {
		Residual(tc, in.cur, in.pred, 8, 8, make([]int32, 64))
		Reconstruct(tc, in.pred, in.res, 8, 8, make([]byte, 64))
		var stages trace.StageCounts
		stages[trace.StageOther] = want.Total()
		if tc.Mix != want || tc.StageCounts() != stages {
			t.Errorf("mix %v stages %v, want %v %v", tc.Mix, tc.StageCounts(), want, stages)
		}
	}
}

func TestBlockKernelsDoNotAllocate(t *testing.T) {
	tc, in := trace.New(), blockInputs(64, 64)["noise"]
	res, rec := make([]int32, 64*64), make([]byte, 64*64)
	if n := testing.AllocsPerRun(100, func() { Residual(tc, in.cur, in.pred, 64, 64, res) }); n != 0 {
		t.Errorf("Residual allocates %v times a call", n)
	}
	if n := testing.AllocsPerRun(100, func() { Reconstruct(tc, in.pred, in.res, 64, 64, rec) }); n != 0 {
		t.Errorf("Reconstruct allocates %v times a call", n)
	}
}

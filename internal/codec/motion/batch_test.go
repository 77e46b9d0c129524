package motion

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/codec/kernel/kerneltest"
	"vcprof/internal/trace"
	"vcprof/internal/trace/tracetest"
	"vcprof/internal/video"
)

// The wall between the batched Search and refSearch, the per-candidate
// loop it replaced: the same Result or error, the same counts on a
// count-only context as on a recording one, and on a hooked context
// (a recorder and a profile) the same events, in the same order, in the
// same stages and functions.

// searchCase is one Search call.
type searchCase struct {
	alg        Algorithm
	cur, ref   codec.Surface
	bx, by     int
	w, h, rng  int
	pred       codec.MV
	name       string
	wantsError bool
}

func (c searchCase) String() string {
	return fmt.Sprintf("%s/%v/%dx%d@%d,%d/r%d/pred%d,%d", c.name, c.alg, c.w, c.h, c.bx, c.by, c.rng, c.pred.X, c.pred.Y)
}

// searchFunc is Search's signature, which refSearch shares.
type searchFunc func(*trace.Ctx, Algorithm, codec.Surface, int, int, codec.Surface, int, int, int, codec.MV) (Result, error)

type searchOut struct {
	res Result
	err string
}

func runSearch(search searchFunc, tc *trace.Ctx, c searchCase) searchOut {
	res, err := search(tc, c.alg, c.cur, c.bx, c.by, c.ref, c.w, c.h, c.rng, c.pred)
	out := searchOut{res: res}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// hookedPair is Search and refSearch side by side, each reporting to
// its own context with a recorder and a profile, kept across calls as
// the other walls' recPair is.
type hookedPair struct {
	got, want         *trace.Ctx
	gotTape, wantTape *trace.Tape
	gotProf, wantProf *trace.Profile
}

func newHookedPair() *hookedPair {
	g, w := &trace.Recorder{}, &trace.Recorder{}
	p := &hookedPair{trace.New(), trace.New(), &g.Tape, &w.Tape, trace.NewProfile(), trace.NewProfile()}
	p.got.AttachRecorder(g)
	p.want.AttachRecorder(w)
	p.got.AttachProfile(p.gotProf)
	p.want.AttachProfile(p.wantProf)
	return p
}

// runs is the tape's runs from instruction start on.
func runs(tape *trace.Tape, start uint64) []trace.Run {
	var rs []trace.Run
	cur := tape.Window(start, tape.Total()-start).Cursor()
	var r trace.Run
	for cur.Next(&r) {
		rs = append(rs, r)
	}
	return rs
}

// checkSearch holds Search to refSearch on c with a nil, a count-only
// and a hooked context. Each hooked search is entered in a stage it
// does not use, and one probe op after it shows the stage it left.
func (p *hookedPair) checkSearch(t testing.TB, c searchCase) {
	t.Helper()
	got, want := runSearch(Search, nil, c), runSearch(refSearch, nil, c)
	if got != want {
		t.Fatalf("%v: nil context: %+v, reference %+v", c, got, want)
	}
	if c.wantsError != (got.err != "") {
		t.Fatalf("%v: error %q, want one: %v", c, got.err, c.wantsError)
	}
	tracetest.CountMatchesRecorded(t, c.String(), trace.StageQuant, func(tc *trace.Ctx) searchOut { return runSearch(Search, tc, c) })
	start := p.gotTape.Total()
	var outs [2]searchOut
	for i, tc := range []*trace.Ctx{p.got, p.want} {
		tc.BeginStage(trace.StageQuant)
		outs[i] = runSearch([2]searchFunc{Search, refSearch}[i], tc, c)
		tc.Op(trace.OpOther, 1)
	}
	switch {
	case outs[0] != outs[1] || outs[0] != got:
		t.Fatalf("%v: hooked %+v, reference %+v, nil context %+v", c, outs[0], outs[1], got)
	case p.got.Mix != p.want.Mix || p.got.StageCounts() != p.want.StageCounts():
		t.Fatalf("%v: mix %v stages %v, reference %v %v", c, p.got.Mix, p.got.StageCounts(), p.want.Mix, p.want.StageCounts())
	case !reflect.DeepEqual(p.gotProf.Flat(), p.wantProf.Flat()):
		t.Fatalf("%v: profile %v, reference %v", c, p.gotProf.Flat(), p.wantProf.Flat())
	case p.gotTape.Total() != p.wantTape.Total() || !slices.Equal(runs(p.gotTape, start), runs(p.wantTape, start)):
		t.Fatalf("%v: the tape differs from the reference's", c)
	}
}

// edgePositions is the block's origin at each corner and edge of a
// frame and inside it, where clamping folds candidates at every edge.
func edgePositions(fw, fh, w, h int) [][2]int {
	xs := []int{0, (fw - w) / 2, fw - w}
	ys := []int{0, (fh - h) / 2, fh - h}
	var ps [][2]int
	for _, y := range ys {
		for _, x := range xs {
			ps = append(ps, [2]int{x, y})
		}
	}
	return ps
}

// TestSearchMatchesRef: all three algorithms, every range to 23 (the
// encoders' widest) and one past stackRange, where the visited set is
// allocated, square blocks 4–64 and two oblong ones at every corner and
// edge of the frame and inside it, with predictors pointing inside,
// outside and across the window; plus a reference narrower and one shorter than the block,
// which fail with SAD's error, and a current block outside its frame.
func TestSearchMatchesRef(t *testing.T) {
	const fw, fh = 160, 128
	cur, ref := shiftedPair(t, fw, fh, 3, -2)
	pair := newHookedPair()
	sizes := [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}, {64, 64}, {8, 16}, {32, 8}}
	preds := []codec.MV{{}, {X: 3, Y: -3}, {X: -40, Y: 40}, {X: 5, Y: 7}}
	var ranges []int
	for r := 1; r <= 23; r++ {
		ranges = append(ranges, r)
	}
	ranges = append(ranges, stackRange+5)
	for _, alg := range []Algorithm{Hex, Diamond, Full} {
		for i, rng := range ranges {
			// Two sizes per range and position, turning with both, so
			// each size meets every edge and most ranges.
			for k := range 9 {
				for _, j := range []int{(i + k) % len(sizes), (i + k + 3) % len(sizes)} {
					wh := sizes[j]
					p := edgePositions(fw, fh, wh[0], wh[1])[k]
					pair.checkSearch(t, searchCase{alg: alg, cur: cur, ref: ref, bx: p[0], by: p[1],
						w: wh[0], h: wh[1], rng: rng, pred: preds[(i+j+k)%len(preds)], name: "frame"})
				}
			}
		}
	}

	narrow := codec.Surface{Plane: video.NewPlane(12, fh), VBase: ref.VBase}
	short := codec.Surface{Plane: video.NewPlane(fw, 12), VBase: ref.VBase}
	thin := codec.Surface{Plane: video.NewPlane(40, fh), VBase: ref.VBase}
	for _, alg := range []Algorithm{Hex, Diamond, Full, Algorithm(9)} {
		for _, c := range []searchCase{
			{ref: narrow, bx: 40, by: 40, w: 16, h: 16, rng: 6, pred: codec.MV{X: 2}, name: "narrow-reference", wantsError: true},
			{ref: short, bx: 40, by: 40, w: 16, h: 16, rng: 6, name: "short-reference", wantsError: true},
			{ref: thin, bx: 72, by: 40, w: 8, h: 8, rng: 6, pred: codec.MV{X: 2}, name: "thin-reference"},
			{ref: ref, bx: fw - 8, by: 0, w: 16, h: 16, rng: 4, name: "current-outside", wantsError: true},
			{ref: ref, bx: 40, by: 40, w: 16, h: 16, rng: 0, name: "bad-range", wantsError: true},
			{ref: ref, bx: 40, by: 40, w: 0, h: 16, rng: 3, name: "no-pixels"},
		} {
			c.alg, c.cur = alg, cur
			c.wantsError = c.wantsError || alg == Algorithm(9)
			pair.checkSearch(t, c)
		}
	}
}

// FuzzSearchVsRef lays a search out from raw bytes — algorithm, range
// to 40, block sizes 1–64, an origin anywhere in a current frame of
// 16–143 by 16–79 samples, a predictor to ±128, and when the bytes say
// so a reference of another size, smaller than the block included —
// stirs the rest into both frames and holds Search to refSearch.
func FuzzSearchVsRef(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 22, 15, 15, 0, 0, 100, 40, 70, 50})
	f.Add([]byte{2, 3, 63, 63, 255, 255, 16, 16, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 37, 7, 3, 90, 60, 127, 63, 128, 0, 1, 20, 9, 0xff, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := make([]int, 13)
		fill := kerneltest.Header(data, hdr)
		fw, fh := 16+hdr[6]%128, 16+hdr[7]%64
		c := searchCase{
			alg: Algorithm(hdr[0] % 3), rng: 1 + hdr[1]%40,
			w: 1 + hdr[2]%64, h: 1 + hdr[3]%64,
			pred: codec.MV{X: int16(hdr[8] - 128), Y: int16(hdr[9] - 128)},
			name: "fuzz",
		}
		c.bx, c.by = hdr[4]%fw, hdr[5]%fh
		c.cur, c.ref = shiftedPair(t, fw, fh, 2, 1)
		if hdr[10]%2 == 1 {
			small := video.NewPlane(1+hdr[11]%fw, 1+hdr[12]%fh)
			for y := 0; y < small.H; y++ {
				copy(small.Pix[y*small.Stride:][:small.W], c.ref.Pix[y*c.ref.Stride:])
			}
			c.ref = codec.Surface{Plane: small, VBase: c.ref.VBase}
		}
		if len(fill) > 0 {
			for i := range c.cur.Pix {
				c.cur.Pix[i] ^= fill[i%len(fill)]
			}
			for i := range c.ref.Pix {
				c.ref.Pix[i] += fill[(i*5+1)%len(fill)]
			}
		}
		c.wantsError = outside(c.cur, c.bx, c.by, c.w, c.h) || c.w > c.ref.W || c.h > c.ref.H
		newHookedPair().checkSearch(t, c)
	})
}

var searchSink Result

// BenchmarkSearch times one search of each algorithm over the 16×16
// blocks of a generated clip (frame 1 of game1 at 1/4 scale against
// frame 0), at the encoders' ranges, with no context (nil), a
// count-only one (count) and a recording one (record). Each pass over
// the blocks gets a fresh context, so the record arm's tape holds one
// pass.
func BenchmarkSearch(b *testing.B) {
	meta, err := video.LookupClip("game1")
	if err != nil {
		b.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 2, ScaleDiv: 4})
	if err != nil {
		b.Fatal(err)
	}
	as := trace.NewAddressSpace()
	ref, err := codec.WrapSurface(as, "ref", clip.Frames[0].Y)
	if err != nil {
		b.Fatal(err)
	}
	cur, err := codec.WrapSurface(as, "cur", clip.Frames[1].Y)
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][2]int
	for y := 0; y+16 <= cur.H; y += 16 {
		for x := 0; x+16 <= cur.W; x += 16 {
			blocks = append(blocks, [2]int{x, y})
		}
	}
	for _, c := range []struct {
		alg Algorithm
		rng int
	}{{Hex, 16}, {Diamond, 16}, {Full, 4}} {
		for _, mode := range []string{"nil", "count", "record"} {
			b.Run(fmt.Sprintf("%v/%s", c.alg, mode), func(b *testing.B) {
				var tc *trace.Ctx
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % len(blocks)
					if k == 0 && mode != "nil" {
						tc = trace.New()
						if mode == "record" {
							tc.AttachRecorder(&trace.Recorder{})
						}
					}
					p := blocks[k]
					if searchSink, err = Search(tc, c.alg, cur, p[0], p[1], ref, 16, 16, c.rng, codec.MV{X: 1, Y: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package motion

import (
	"math"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

func mexp(x float64) float64 { return math.Exp(x) }

// shiftedPair builds a current surface that equals the reference
// translated by (dx, dy), so the true motion vector is known.
func shiftedPair(t *testing.T, w, h, dx, dy int) (cur, ref codec.Surface) {
	t.Helper()
	as := trace.NewAddressSpace()
	refP := video.NewPlane(w, h)
	curP := video.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// A smooth radial blob: the SAD between shifted copies grows
			// monotonically with shift distance, so both exhaustive and
			// gradient-descent pattern searches can find the true shift.
			dx := float64(x - w/2)
			dy := float64(y - h/2)
			d2 := dx*dx + dy*dy
			refP.Pix[y*w+x] = byte(30 + 220*mexp(-d2/float64(w*h/8)))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := x+dx, y+dy
			if sx < 0 {
				sx = 0
			} else if sx >= w {
				sx = w - 1
			}
			if sy < 0 {
				sy = 0
			} else if sy >= h {
				sy = h - 1
			}
			curP.Pix[y*w+x] = refP.Pix[sy*w+sx]
		}
	}
	var err error
	ref, err = codec.WrapSurface(as, "ref", refP)
	if err != nil {
		t.Fatal(err)
	}
	cur, err = codec.WrapSurface(as, "cur", curP)
	if err != nil {
		t.Fatal(err)
	}
	return cur, ref
}

func TestSADIdenticalBlocksIsZero(t *testing.T) {
	cur, ref := shiftedPair(t, 64, 64, 0, 0)
	got, err := SAD(nil, cur, 16, 16, ref, 16, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("SAD of identical blocks = %d, want 0", got)
	}
}

func TestSADBoundsChecking(t *testing.T) {
	cur, ref := shiftedPair(t, 32, 32, 0, 0)
	if _, err := SAD(nil, cur, 20, 20, ref, 0, 0, 16, 16); err == nil {
		t.Error("SAD accepted out-of-bounds current block")
	}
	if _, err := SAD(nil, cur, 0, 0, ref, 20, 20, 16, 16); err == nil {
		t.Error("SAD accepted out-of-bounds reference block")
	}
	if _, err := SAD(nil, cur, -1, 0, ref, 0, 0, 16, 16); err == nil {
		t.Error("SAD accepted negative current origin")
	}
}

func TestFullSearchFindsExactShift(t *testing.T) {
	dx, dy := 3, -2
	cur, ref := shiftedPair(t, 96, 96, dx, dy)
	res, err := Search(nil, Full, cur, 32, 32, ref, 16, 16, 8, codec.MV{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MV.X != int16(dx) || res.MV.Y != int16(dy) {
		t.Errorf("full search MV = (%d,%d), want (%d,%d)", res.MV.X, res.MV.Y, dx, dy)
	}
	if res.Cost != 0 {
		t.Errorf("full search cost = %d, want 0 for exact match", res.Cost)
	}
	if res.Points < (2*8+1)*(2*8+1) {
		t.Errorf("full search evaluated %d points, want full window %d", res.Points, 17*17)
	}
}

func TestPatternSearchesFindShiftFromPredictor(t *testing.T) {
	dx, dy := 5, 4
	cur, ref := shiftedPair(t, 96, 96, dx, dy)
	for _, alg := range []Algorithm{Diamond, Hex} {
		res, err := Search(nil, alg, cur, 32, 32, ref, 16, 16, 12, codec.MV{X: 3, Y: 3})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.MV.X != int16(dx) || res.MV.Y != int16(dy) {
			t.Errorf("%v MV = (%d,%d), want (%d,%d)", alg, res.MV.X, res.MV.Y, dx, dy)
		}
	}
}

func TestPatternSearchCheaperThanFull(t *testing.T) {
	cur, ref := shiftedPair(t, 96, 96, 2, 1)
	full, err := Search(nil, Full, cur, 32, 32, ref, 16, 16, 12, codec.MV{})
	if err != nil {
		t.Fatal(err)
	}
	hex, err := Search(nil, Hex, cur, 32, 32, ref, 16, 16, 12, codec.MV{})
	if err != nil {
		t.Fatal(err)
	}
	if hex.Points*4 > full.Points {
		t.Errorf("hex evaluated %d points vs full %d; want at least 4x cheaper", hex.Points, full.Points)
	}
}

func TestSearchClampsToFrame(t *testing.T) {
	cur, ref := shiftedPair(t, 48, 48, 0, 0)
	// Block at the frame corner: large search range must not read
	// outside the reference.
	res, err := Search(nil, Diamond, cur, 0, 0, ref, 16, 16, 16, codec.MV{X: -10, Y: -10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MV.X < 0 || res.MV.Y < 0 {
		t.Errorf("corner-block MV = (%d,%d) points outside frame", res.MV.X, res.MV.Y)
	}
}

func TestSearchValidation(t *testing.T) {
	cur, ref := shiftedPair(t, 48, 48, 0, 0)
	if _, err := Search(nil, Full, cur, 0, 0, ref, 16, 16, 0, codec.MV{}); err == nil {
		t.Error("accepted zero search range")
	}
	if _, err := Search(nil, Algorithm(9), cur, 0, 0, ref, 16, 16, 4, codec.MV{}); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestSearchInstrumentationEmitsMemAndBranches(t *testing.T) {
	cur, ref := shiftedPair(t, 96, 96, 1, 1)
	tc := trace.New()
	if _, err := Search(tc, Diamond, cur, 32, 32, ref, 16, 16, 8, codec.MV{}); err != nil {
		t.Fatal(err)
	}
	if tc.Mix[trace.OpLoad] == 0 {
		t.Error("search reported no loads")
	}
	if tc.Mix[trace.OpBranch] == 0 {
		t.Error("search reported no branches")
	}
	if tc.Mix[trace.OpAVX] == 0 {
		t.Error("search reported no vector SAD work")
	}
}

func TestInterpHalfPelPhases(t *testing.T) {
	as := trace.NewAddressSpace()
	p := video.NewPlane(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			p.Pix[8*y+x] = byte(10*y + x)
		}
	}
	at := func(x, y int) int { return int(p.Pix[8*y+x]) }
	ref, err := codec.WrapSurface(as, "hp", p)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	// Integer phase copies.
	if err := InterpHalfPel(nil, ref, 1, 1, SubPel{}, 2, 2, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != byte(at(1, 1)) || dst[3] != byte(at(2, 2)) {
		t.Errorf("integer phase wrong: %v", dst)
	}
	// Horizontal half: average of left/right with rounding.
	if err := InterpHalfPel(nil, ref, 1, 1, SubPel{X: 1}, 2, 2, dst); err != nil {
		t.Fatal(err)
	}
	want := byte((at(1, 1) + at(2, 1) + 1) / 2)
	if dst[0] != want {
		t.Errorf("horizontal half = %d, want %d", dst[0], want)
	}
	// Vertical half.
	if err := InterpHalfPel(nil, ref, 1, 1, SubPel{Y: 1}, 2, 2, dst); err != nil {
		t.Fatal(err)
	}
	want = byte((at(1, 1) + at(1, 2) + 1) / 2)
	if dst[0] != want {
		t.Errorf("vertical half = %d, want %d", dst[0], want)
	}
	// Diagonal half: 4-sample average.
	if err := InterpHalfPel(nil, ref, 1, 1, SubPel{X: 1, Y: 1}, 2, 2, dst); err != nil {
		t.Fatal(err)
	}
	want = byte((at(1, 1) + at(2, 1) + at(1, 2) + at(2, 2) + 2) / 4)
	if dst[0] != want {
		t.Errorf("diagonal half = %d, want %d", dst[0], want)
	}
}

func TestInterpHalfPelBounds(t *testing.T) {
	as := trace.NewAddressSpace()
	ref, err := codec.WrapSurface(as, "hpb", video.NewPlane(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 16)
	// A half phase at the right edge needs one extra column.
	if err := InterpHalfPel(nil, ref, 4, 0, SubPel{X: 1}, 4, 4, dst); err == nil {
		t.Error("accepted half-pel read past the right edge")
	}
	if err := InterpHalfPel(nil, ref, 4, 4, SubPel{}, 4, 4, dst); err != nil {
		t.Errorf("integer phase at the edge rejected: %v", err)
	}
	if err := InterpHalfPel(nil, ref, 0, 0, SubPel{X: 3}, 4, 4, dst); err == nil {
		t.Error("accepted invalid phase")
	}
}

func TestInterpHalfPelInstrumented(t *testing.T) {
	as := trace.NewAddressSpace()
	ref, err := codec.WrapSurface(as, "hpi", video.NewPlane(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.New()
	dst := make([]byte, 16*16)
	if err := InterpHalfPel(tc, ref, 2, 2, SubPel{X: 1, Y: 1}, 16, 16, dst); err != nil {
		t.Fatal(err)
	}
	if tc.Mix[trace.OpAVX] == 0 || tc.Mix[trace.OpLoad] == 0 {
		t.Errorf("interpolation reported no work: %+v", tc.Mix)
	}
}

// TestSearchDoesNotAllocate pins the visited set to the stack: the
// pattern searches the encoders run on every block allocate nothing.
func TestSearchDoesNotAllocate(t *testing.T) {
	cur, ref := shiftedPair(t, 96, 96, 3, -2)
	for _, alg := range []Algorithm{Hex, Diamond} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Search(nil, alg, cur, 32, 32, ref, 16, 16, 24, codec.MV{X: 1, Y: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v search: %v allocations per call, want 0", alg, allocs)
		}
	}
}

// TestFullSearchEvaluatesEachPositionOnce checks the visited set
// against an independent count: a full search evaluates exactly the
// distinct frame-clamped vectors of its window — at frame corners,
// where clamping folds many candidates onto one; past stackRange, where
// the set is allocated; and against a reference narrower than the
// block's position, where every candidate is pulled outside ±rng.
func TestFullSearchEvaluatesEachPositionOnce(t *testing.T) {
	cur, ref := shiftedPair(t, 96, 96, 2, 1)
	small := codec.Surface{Plane: video.NewPlane(40, 96), VBase: ref.VBase}
	for _, c := range []struct {
		name          string
		ref           codec.Surface
		bx, by, w, rg int
		pred          codec.MV
	}{
		{"interior", ref, 40, 40, 16, 8, codec.MV{X: 3, Y: -3}},
		{"corner", ref, 0, 0, 16, 12, codec.MV{X: -9, Y: -9}},
		{"far-corner", ref, 80, 80, 16, 20, codec.MV{X: 30, Y: 30}},
		{"past-stack-range", ref, 40, 40, 8, stackRange + 5, codec.MV{}},
		{"narrow-reference", small, 72, 40, 8, 6, codec.MV{X: 2}},
	} {
		distinct := map[[2]int]bool{}
		clamp := func(v, b, size, limit int) int {
			v = min(max(v, -c.rg), c.rg)
			if b+v < 0 {
				v = -b
			}
			if b+v+size > limit {
				v = limit - size - b
			}
			return v
		}
		for dy := -c.rg; dy <= c.rg; dy++ {
			for dx := -c.rg; dx <= c.rg; dx++ {
				distinct[[2]int{clamp(dx, c.bx, c.w, c.ref.W), clamp(dy, c.by, c.w, c.ref.H)}] = true
			}
		}
		res, err := Search(nil, Full, cur, c.bx, c.by, c.ref, c.w, c.w, c.rg, c.pred)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Points != len(distinct) {
			t.Errorf("%s: evaluated %d positions, window holds %d distinct ones", c.name, res.Points, len(distinct))
		}
	}
}

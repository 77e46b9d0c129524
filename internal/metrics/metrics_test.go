package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"vcprof/internal/video"
)

func plane(w, h int, fill byte) *video.Plane {
	p := video.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = fill
	}
	return p
}

func TestMSEAndPSNR(t *testing.T) {
	a := plane(8, 8, 100)
	b := plane(8, 8, 110)
	mse, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mse != 100 {
		t.Errorf("MSE = %v, want 100", mse)
	}
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", p, want)
	}
	same, err := PSNR(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(same, 1) {
		t.Errorf("PSNR of identical planes = %v, want +Inf", same)
	}
	if _, err := MSE(a, plane(4, 8, 0)); err == nil {
		t.Error("MSE accepted mismatched planes")
	}
}

func TestPSNRMonotoneInError(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		a := plane(4, 4, 128)
		b := plane(4, 4, 128+byte(d1%100))
		c := plane(4, 4, 128+byte(d1%100)+byte(d2%50))
		pb, _ := PSNR(a, b)
		pc, _ := PSNR(a, c)
		return pc <= pb // larger error never improves PSNR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameAndSequencePSNR(t *testing.T) {
	fa, _ := video.NewFrame(16, 16)
	fb, _ := video.NewFrame(16, 16)
	for i := range fb.Y.Pix {
		fb.Y.Pix[i] = 10
	}
	p, err := FramePSNR(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	// Luma MSE=100, chroma MSE=0 → weighted (4*100+0+0)/6.
	want := 10 * math.Log10(255*255/(400.0/6))
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("FramePSNR = %v, want %v", p, want)
	}

	seq, err := SequencePSNR([]*video.Frame{fa, fa}, []*video.Frame{fa, fb})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq-(100+want)/2) > 1e-9 {
		t.Errorf("SequencePSNR = %v, want %v (lossless clamps to 100)", seq, (100+want)/2)
	}
	if _, err := SequencePSNR([]*video.Frame{fa}, nil); err == nil {
		t.Error("SequencePSNR accepted mismatched lengths")
	}
	if _, err := SequencePSNR(nil, nil); err == nil {
		t.Error("SequencePSNR accepted empty sequences")
	}
}

func TestBitrateKbps(t *testing.T) {
	// 30 frames at 30 fps = 1 second; 125000 bytes = 1000 kbit.
	got, err := BitrateKbps(125000, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1000) > 1e-9 {
		t.Errorf("BitrateKbps = %v, want 1000", got)
	}
	if _, err := BitrateKbps(1, 0, 30); err == nil {
		t.Error("BitrateKbps accepted zero frames")
	}
}

// rdFrom builds an RD curve from a smooth parametric model
// psnr = base + slope*log10(rate).
func rdFrom(base, slope float64, rates []float64) RDCurve {
	c := make(RDCurve, len(rates))
	for i, r := range rates {
		c[i] = RDPoint{BitrateKbps: r, PSNR: base + slope*math.Log10(r)}
	}
	return c
}

func TestBDRateIdenticalCurvesIsZero(t *testing.T) {
	c := rdFrom(20, 10, []float64{500, 1000, 2000, 4000, 8000})
	bd, err := BDRate(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd) > 1e-6 {
		t.Errorf("BDRate(c, c) = %v, want 0", bd)
	}
}

func TestBDRateHalfRateIsMinusFifty(t *testing.T) {
	anchor := rdFrom(20, 10, []float64{500, 1000, 2000, 4000, 8000})
	// Same quality at exactly half the rate everywhere.
	test := make(RDCurve, len(anchor))
	for i, p := range anchor {
		test[i] = RDPoint{BitrateKbps: p.BitrateKbps / 2, PSNR: p.PSNR}
	}
	bd, err := BDRate(anchor, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd-(-50)) > 0.5 {
		t.Errorf("BDRate = %v, want about -50%%", bd)
	}
}

func TestBDRateDoubleRateIsPlusHundred(t *testing.T) {
	anchor := rdFrom(20, 10, []float64{500, 1000, 2000, 4000})
	test := make(RDCurve, len(anchor))
	for i, p := range anchor {
		test[i] = RDPoint{BitrateKbps: p.BitrateKbps * 2, PSNR: p.PSNR}
	}
	bd, err := BDRate(anchor, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd-100) > 1 {
		t.Errorf("BDRate = %v, want about +100%%", bd)
	}
}

func TestBDRateErrors(t *testing.T) {
	short := rdFrom(20, 10, []float64{500, 1000, 2000})
	full := rdFrom(20, 10, []float64{500, 1000, 2000, 4000})
	if _, err := BDRate(short, full); err == nil {
		t.Error("BDRate accepted a 3-point curve")
	}
	neg := rdFrom(20, 10, []float64{500, 1000, 2000, 4000})
	neg[0].BitrateKbps = -1
	if _, err := BDRate(full, neg); err == nil {
		t.Error("BDRate accepted a negative bitrate")
	}
	// Disjoint PSNR ranges have no overlap to integrate.
	lowQ := rdFrom(0, 1, []float64{500, 1000, 2000, 4000})
	highQ := rdFrom(90, 1, []float64{500, 1000, 2000, 4000})
	if _, err := BDRate(lowQ, highQ); err == nil {
		t.Error("BDRate accepted disjoint PSNR ranges")
	}
}

func TestFitCubicRecoversPolynomial(t *testing.T) {
	want := [4]float64{2, -1, 0.5, 0.25}
	var xs, ys []float64
	for x := -3.0; x <= 3; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, want[0]+want[1]*x+want[2]*x*x+want[3]*x*x*x)
	}
	got, err := fitCubic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Degenerate input: all x identical → singular.
	if _, err := fitCubic([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("fitCubic accepted a singular system")
	}
}

func TestIntegratePoly(t *testing.T) {
	// ∫0..2 (1 + x) dx = 2 + 2 = 4.
	got := integratePoly([4]float64{1, 1, 0, 0}, 0, 2)
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("integratePoly = %v, want 4", got)
	}
}

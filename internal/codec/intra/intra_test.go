package intra

import (
	"testing"

	"vcprof/internal/trace"
)

func borders(n int) Neighbors {
	top := make([]byte, n)
	left := make([]byte, n)
	for i := 0; i < n; i++ {
		top[i] = byte(100 + i)
		left[i] = byte(50 + 2*i)
	}
	return Neighbors{Top: top, Left: left, HasTop: true, HasLeft: true}
}

func TestDCPrediction(t *testing.T) {
	n := 4
	nb := Neighbors{
		Top:    []byte{10, 20, 30, 40},
		Left:   []byte{50, 60, 70, 80},
		HasTop: true, HasLeft: true,
	}
	dst := make([]byte, n*n)
	if err := Predict(nil, DC, nb, n, dst); err != nil {
		t.Fatal(err)
	}
	want := byte((10 + 20 + 30 + 40 + 50 + 60 + 70 + 80 + 4) / 8)
	for i, v := range dst {
		if v != want {
			t.Fatalf("dst[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestDCNoBordersFallsBackTo128(t *testing.T) {
	dst := make([]byte, 16)
	if err := Predict(nil, DC, Neighbors{}, 4, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 128 {
			t.Fatalf("dst[%d] = %d, want 128", i, v)
		}
	}
}

func TestVerticalCopiesTopRow(t *testing.T) {
	n := 8
	nb := borders(n)
	dst := make([]byte, n*n)
	if err := Predict(nil, Vertical, nb, n, dst); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if dst[y*n+x] != nb.Top[x] {
				t.Fatalf("(%d,%d) = %d, want top[%d]=%d", x, y, dst[y*n+x], x, nb.Top[x])
			}
		}
	}
}

func TestHorizontalCopiesLeftColumn(t *testing.T) {
	n := 8
	nb := borders(n)
	dst := make([]byte, n*n)
	if err := Predict(nil, Horizontal, nb, n, dst); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if dst[y*n+x] != nb.Left[y] {
				t.Fatalf("(%d,%d) = %d, want left[%d]=%d", x, y, dst[y*n+x], y, nb.Left[y])
			}
		}
	}
}

func TestPlanarBlendsWithinBorderRange(t *testing.T) {
	n := 8
	nb := borders(n)
	dst := make([]byte, n*n)
	if err := Predict(nil, Planar, nb, n, dst); err != nil {
		t.Fatal(err)
	}
	lo, hi := byte(255), byte(0)
	for _, v := range append(append([]byte{}, nb.Top[:n]...), nb.Left[:n]...) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for i, v := range dst {
		if v < lo || v > hi {
			t.Fatalf("planar dst[%d] = %d outside border range [%d, %d]", i, v, lo, hi)
		}
	}
}

func TestPredictValidation(t *testing.T) {
	if err := Predict(nil, DC, Neighbors{}, 0, nil); err == nil {
		t.Error("accepted zero block size")
	}
	if err := Predict(nil, DC, Neighbors{HasTop: true, Top: []byte{1}}, 4, make([]byte, 16)); err == nil {
		t.Error("accepted short top border")
	}
	if err := Predict(nil, DC, Neighbors{HasLeft: true, Left: []byte{1}}, 4, make([]byte, 16)); err == nil {
		t.Error("accepted short left border")
	}
	if err := Predict(nil, Mode(99), borders(4), 4, make([]byte, 16)); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestPredictInstrumentation(t *testing.T) {
	tc := trace.New()
	dst := make([]byte, 64)
	for m := Mode(0); m < NumModes; m++ {
		if err := Predict(tc, m, borders(8), 8, dst); err != nil {
			t.Fatal(err)
		}
	}
	if tc.Mix[trace.OpAVX] == 0 || tc.Mix[trace.OpBranch] == 0 {
		t.Errorf("prediction reported mix %+v; want AVX and branch activity", tc.Mix)
	}
}

func TestAngularModes(t *testing.T) {
	n := 8
	nb := borders(n)
	dst := make([]byte, n*n)
	for i := 0; i < NumAngles; i++ {
		m := Angular(i)
		if !IsAngular(m) {
			t.Fatalf("Angular(%d) not angular", i)
		}
		if err := Predict(nil, m, nb, n, dst); err != nil {
			t.Fatalf("Angular(%d): %v", i, err)
		}
		// Prediction values must come from the borders.
		valid := map[byte]bool{}
		for j := 0; j < n; j++ {
			valid[nb.Top[j]] = true
			valid[nb.Left[j]] = true
		}
		for p, v := range dst {
			if !valid[v] {
				t.Fatalf("Angular(%d) sample %d = %d not a border sample", i, p, v)
			}
		}
	}
	if Angular(-1) != NumModes || Angular(NumAngles) != NumModes {
		t.Error("out-of-range Angular should return an invalid mode")
	}
	if err := Predict(nil, Angular(0), nb, 0, nil); err == nil {
		t.Error("angular accepted zero block size")
	}
}

func TestAngularMissingBorderFallsBack(t *testing.T) {
	dst := make([]byte, 16)
	// Vertical-ish angle without a top border → flat 128.
	if err := Predict(nil, Angular(0), Neighbors{}, 4, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 128 {
			t.Fatalf("sample %d = %d, want 128 fallback", i, v)
		}
	}
}

func TestAngularDistinctFromBaseModes(t *testing.T) {
	// At least one angular mode must differ from V and H on a gradient
	// border — otherwise the extra modes add no search-space value.
	n := 8
	nb := borders(n)
	base := make([]byte, n*n)
	if err := Predict(nil, Vertical, nb, n, base); err != nil {
		t.Fatal(err)
	}
	distinct := false
	dst := make([]byte, n*n)
	for i := 0; i < NumAngles; i++ {
		if err := Predict(nil, Angular(i), nb, n, dst); err != nil {
			t.Fatal(err)
		}
		for j := range dst {
			if dst[j] != base[j] {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Error("all angular modes identical to Vertical")
	}
}

// TestPredictDoesNotAllocate: every mode, angular ones included,
// predicts without allocating, uninstrumented or counting.
func TestPredictDoesNotAllocate(t *testing.T) {
	nb, dst := borders(16), make([]byte, 16*16)
	for _, tc := range []*trace.Ctx{nil, trace.New()} {
		for m := Mode(0); m < NumModes+NumAngles; m++ {
			if a := testing.AllocsPerRun(50, func() { _ = Predict(tc, m, nb, 16, dst) }); a != 0 {
				t.Errorf("%v (ctx %v): %v allocs a call", m, tc != nil, a)
			}
		}
	}
}

package metrics

import (
	"math"
	"testing"

	"vcprof/internal/video"
)

func texPlane(w, h int, seed uint32) *video.Plane {
	p := video.NewPlane(w, h)
	s := seed
	for i := range p.Pix {
		s = s*1664525 + 1013904223
		p.Pix[i] = byte(128 + int(s>>28) - 8)
	}
	return p
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	p := texPlane(32, 32, 7)
	got, err := SSIM(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(p, p) = %v, want 1", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	ref := texPlane(64, 64, 7)
	mild := clonePlane(ref)
	heavy := clonePlane(ref)
	for i := range mild.Pix {
		if i%3 == 0 {
			mild.Pix[i] += 4
			heavy.Pix[i] += 40
		}
	}
	sMild, err := SSIM(ref, mild)
	if err != nil {
		t.Fatal(err)
	}
	sHeavy, err := SSIM(ref, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if !(sHeavy < sMild && sMild < 1) {
		t.Errorf("SSIM ordering wrong: heavy %v, mild %v", sHeavy, sMild)
	}
	if sHeavy < -1 || sHeavy > 1 {
		t.Errorf("SSIM %v out of range", sHeavy)
	}
}

func TestSSIMStructureSensitive(t *testing.T) {
	// A constant-offset copy keeps structure: SSIM should stay much
	// higher than for structure-destroying shuffling at the same MSE.
	ref := texPlane(64, 64, 99)
	offset := clonePlane(ref)
	for i := range offset.Pix {
		offset.Pix[i] += 10
	}
	shuffled := clonePlane(ref)
	for y := 0; y < 64; y += 2 {
		copy(shuffled.Row(y), ref.Row(63-y))
	}
	sOff, err := SSIM(ref, offset)
	if err != nil {
		t.Fatal(err)
	}
	sShuf, err := SSIM(ref, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if sOff <= sShuf {
		t.Errorf("offset SSIM %v not above shuffled SSIM %v", sOff, sShuf)
	}
}

func TestSSIMValidation(t *testing.T) {
	a := texPlane(32, 32, 1)
	b := texPlane(16, 32, 1)
	if _, err := SSIM(a, b); err == nil {
		t.Error("accepted mismatched planes")
	}
	tiny := texPlane(4, 4, 1)
	if _, err := SSIM(tiny, tiny); err == nil {
		t.Error("accepted plane smaller than the window")
	}
}

func TestSequenceSSIM(t *testing.T) {
	fa, _ := video.NewFrame(32, 32)
	copy(fa.Y.Pix, texPlane(32, 32, 3).Pix)
	fb := cloneFrame(fa)
	for i := range fb.Y.Pix {
		if i%5 == 0 {
			fb.Y.Pix[i] += 20
		}
	}
	s, err := SequenceSSIM([]*video.Frame{fa, fa}, []*video.Frame{fa, fb})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= 1 {
		t.Errorf("sequence SSIM = %v, want (0, 1)", s)
	}
	if _, err := SequenceSSIM(nil, nil); err == nil {
		t.Error("accepted empty sequences")
	}
	if _, err := SequenceSSIM([]*video.Frame{fa}, nil); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

// clonePlane returns a deep copy of p.
func clonePlane(p *video.Plane) *video.Plane {
	q := *p
	q.Pix = append([]byte(nil), p.Pix...)
	return &q
}

// cloneFrame returns a deep copy of f.
func cloneFrame(f *video.Frame) *video.Frame {
	return &video.Frame{Y: clonePlane(f.Y), U: clonePlane(f.U), V: clonePlane(f.V), Index: f.Index}
}

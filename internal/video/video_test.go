package video

import (
	"testing"
	"testing/quick"
)

func TestVbenchCatalog(t *testing.T) {
	clips := Vbench()
	if len(clips) != 15 {
		t.Fatalf("vbench catalog has %d clips, want 15", len(clips))
	}
	seen := map[string]bool{}
	for _, m := range clips {
		if seen[m.Name] {
			t.Errorf("duplicate clip name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Width <= 0 || m.Height <= 0 || m.FPS <= 0 {
			t.Errorf("clip %q has invalid geometry %+v", m.Name, m)
		}
		if m.Entropy < 0 || m.Entropy > 8 {
			t.Errorf("clip %q entropy %v out of range", m.Name, m.Entropy)
		}
	}
	for _, want := range []struct {
		name    string
		height  int
		fps     int
		entropy float64
	}{
		{"game1", 1080, 60, 4.6},
		{"chicken", 2160, 30, 5.9},
		{"desktop", 720, 30, 0.2},
		{"hall", 1080, 29, 7.7},
	} {
		m, err := LookupClip(want.name)
		if err != nil {
			t.Fatalf("LookupClip(%q): %v", want.name, err)
		}
		if m.Height != want.height || m.FPS != want.fps || m.Entropy != want.entropy {
			t.Errorf("clip %q = %+v, want height=%d fps=%d entropy=%v",
				want.name, m, want.height, want.fps, want.entropy)
		}
	}
}

func TestLookupClipUnknown(t *testing.T) {
	if _, err := LookupClip("nosuchclip"); err == nil {
		t.Fatal("LookupClip(nosuchclip) succeeded, want error")
	}
}

func TestScaleRoundsEvenAndClamps(t *testing.T) {
	m := ClipMeta{Name: "x", Width: 1920, Height: 1080, FPS: 30}
	s := m.Scale(8)
	if s.Width%2 != 0 || s.Height%2 != 0 {
		t.Errorf("scaled dims %dx%d not even", s.Width, s.Height)
	}
	if s.Width != 240 || s.Height != 136 {
		t.Errorf("Scale(8) = %dx%d, want 240x136", s.Width, s.Height)
	}
	tiny := ClipMeta{Width: 100, Height: 100}.Scale(64)
	if tiny.Width < 32 || tiny.Height < 32 {
		t.Errorf("Scale clamped to %dx%d, want >=32", tiny.Width, tiny.Height)
	}
	if same := m.Scale(1); same != m {
		t.Errorf("Scale(1) changed metadata: %+v", same)
	}
}

func TestNewFrameValidation(t *testing.T) {
	if _, err := NewFrame(0, 16); err == nil {
		t.Error("NewFrame(0,16) succeeded, want error")
	}
	if _, err := NewFrame(17, 16); err == nil {
		t.Error("NewFrame(17,16) succeeded, want error for odd width")
	}
	f, err := NewFrame(64, 32)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	if f.U.W != 32 || f.U.H != 16 || f.V.W != 32 || f.V.H != 16 {
		t.Errorf("chroma planes %dx%d / %dx%d, want 32x16", f.U.W, f.U.H, f.V.W, f.V.H)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	meta, err := LookupClip("game1")
	if err != nil {
		t.Fatal(err)
	}
	opts := GenerateOptions{Frames: 3, ScaleDiv: 8}
	a, err := Generate(meta, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(meta, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		for j := range fa.Y.Pix {
			if fa.Y.Pix[j] != fb.Y.Pix[j] {
				t.Fatalf("frame %d luma byte %d differs between identical generations", i, j)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGenerateEntropyOrdersFrameDifference(t *testing.T) {
	// Higher-entropy clips must have more temporal change, since that is
	// what drives encoder effort ordering in the paper's Table 2.
	diff := func(name string) float64 {
		meta, err := LookupClip(name)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := Generate(meta, GenerateOptions{Frames: 4, ScaleDiv: 8})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		a, b := clip.Frames[1].Y, clip.Frames[3].Y
		for i := range a.Pix {
			d := float64(int(a.Pix[i]) - int(b.Pix[i]))
			sum += d * d
		}
		return sum / float64(len(a.Pix))
	}
	low, high := diff("desktop"), diff("hall")
	if low >= high {
		t.Errorf("temporal MSE: desktop=%v >= hall=%v; entropy should order temporal change", low, high)
	}
}

func TestGenerateFrameCountDefaults(t *testing.T) {
	meta := ClipMeta{Name: "t", Width: 64, Height: 64, FPS: 10, Entropy: 1, Seed: 7}
	clip, err := Generate(meta, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clip.Frames) != 50 {
		t.Errorf("default frame count = %d, want FPS*5 = 50", len(clip.Frames))
	}
	if _, err := Generate(meta, GenerateOptions{Frames: -1}); err == nil {
		t.Error("negative frame count accepted, want error")
	}
}

func TestClipValidateMismatchedFrames(t *testing.T) {
	f1, _ := NewFrame(32, 32)
	f2, _ := NewFrame(64, 32)
	c := &Clip{Frames: []*Frame{f1, f2}}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted mismatched frame sizes")
	}
	empty := &Clip{}
	if err := empty.Validate(); err != ErrNoFrames {
		t.Errorf("Validate(empty) = %v, want ErrNoFrames", err)
	}
}

func TestBounceStaysInRange(t *testing.T) {
	f := func(v float64) bool {
		if v != v || v > 1e12 || v < -1e12 { // skip NaN/huge inputs
			return true
		}
		got := bounce(v, 100)
		return got >= 0 && got <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformish(t *testing.T) {
	r := newRNG(42)
	var buckets [8]int
	const n = 8000
	for i := 0; i < n; i++ {
		buckets[r.intn(8)]++
	}
	for i, b := range buckets {
		if b < n/8-300 || b > n/8+300 {
			t.Errorf("bucket %d count %d far from uniform %d", i, b, n/8)
		}
	}
}

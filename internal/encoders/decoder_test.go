package encoders

import (
	"context"
	"testing"

	"vcprof/internal/video"
)

// assertFramesEqual compares two frame sequences sample-exactly.
func assertFramesEqual(t *testing.T, what string, a, b []*video.Frame) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d frames vs %d", what, len(a), len(b))
	}
	for i := range a {
		for _, pl := range []struct {
			name   string
			pa, pb *video.Plane
		}{
			{"Y", a[i].Y, b[i].Y}, {"U", a[i].U, b[i].U}, {"V", a[i].V, b[i].V},
		} {
			name, pa, pb := pl.name, pl.pa, pl.pb
			if pa.W != pb.W || pa.H != pb.H {
				t.Fatalf("%s: frame %d %s size %dx%d vs %dx%d", what, i, name, pa.W, pa.H, pb.W, pb.H)
			}
			for y := 0; y < pa.H; y++ {
				ra, rb := pa.Row(y), pb.Row(y)
				for x := range ra {
					if ra[x] != rb[x] {
						t.Fatalf("%s: frame %d %s (%d,%d): %d vs %d", what, i, name, x, y, ra[x], rb[x])
					}
				}
			}
		}
	}
}

// TestDecodeRoundTripAllFamilies is the end-to-end bitstream check: the
// decoder's output must be bit-identical to the encoder's own
// reconstruction for every family.
func TestDecodeRoundTripAllFamilies(t *testing.T) {
	clip := testClip(t, "game1", 4, 16)
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			enc := MustNew(fam)
			_, crfHi := enc.CRFRange()
			var recon []*video.Frame
			res, err := enc.Encode(context.Background(), clip, Options{CRF: crfHi / 2, Preset: midPresetFor(enc), KeepBitstream: true, recon: &recon})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Bitstream) == 0 {
				t.Fatal("no bitstream assembled")
			}
			dec, err := DecodeBitstream(res.Bitstream)
			if err != nil {
				t.Fatal(err)
			}
			assertFramesEqual(t, string(fam), recon, dec)
		})
	}
}

func TestDecodeRoundTripOperatingPoints(t *testing.T) {
	// Cover keyframe intervals, slow presets (full shape search, two
	// references, transform-size search) and very coarse quantizers.
	clip := testClip(t, "hall", 5, 16)
	enc := MustNew(SVTAV1)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"slow-preset", Options{CRF: 20, Preset: 1, KeepBitstream: true}},
		{"coarse-q", Options{CRF: 63, Preset: 8, KeepBitstream: true}},
		{"keyed", Options{CRF: 40, Preset: 6, KeyInterval: 2, KeepBitstream: true}},
		{"threaded", Options{CRF: 40, Preset: 6, Threads: 4, KeepBitstream: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var recon []*video.Frame
			opts := tc.opts
			opts.recon = &recon
			res, err := enc.Encode(context.Background(), clip, opts)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeBitstream(res.Bitstream)
			if err != nil {
				t.Fatal(err)
			}
			assertFramesEqual(t, tc.name, recon, dec)
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBitstream(nil); err == nil {
		t.Error("accepted empty data")
	}
	if _, err := DecodeBitstream([]byte("NOTABITSTREAMATALL")); err == nil {
		t.Error("accepted bad magic")
	}
	clip := testClip(t, "desktop", 2, 16)
	res, err := MustNew(X264).Encode(context.Background(), clip, Options{CRF: 30, Preset: 4, KeepBitstream: true})
	if err != nil {
		t.Fatal(err)
	}
	// Truncation at various points must error, not panic.
	for _, cut := range []int{5, 10, 20, len(res.Bitstream) / 2, len(res.Bitstream) - 3} {
		if cut >= len(res.Bitstream) {
			continue
		}
		if _, err := DecodeBitstream(res.Bitstream[:cut]); err == nil {
			t.Errorf("accepted bitstream truncated at %d", cut)
		}
	}
	// Trailing junk must be flagged.
	if _, err := DecodeBitstream(append(append([]byte{}, res.Bitstream...), 1, 2, 3)); err == nil {
		t.Error("accepted trailing bytes")
	}
	// Corrupt version byte.
	bad := append([]byte{}, res.Bitstream...)
	bad[4] = 99
	if _, err := DecodeBitstream(bad); err == nil {
		t.Error("accepted bad version")
	}
}

func TestBitstreamOmittedByDefault(t *testing.T) {
	clip := testClip(t, "desktop", 2, 16)
	res, err := MustNew(X264).Encode(context.Background(), clip, Options{CRF: 30, Preset: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitstream != nil {
		t.Error("bitstream assembled without KeepBitstream")
	}
}

func TestBitstreamSizeMatchesAccounting(t *testing.T) {
	// The container must be close to the accounted frame bytes (headers
	// are counted per frame; the sequence header adds a few bytes).
	clip := testClip(t, "game2", 3, 16)
	res, err := MustNew(SVTAV1).Encode(context.Background(), clip, Options{CRF: 40, Preset: 6, KeepBitstream: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bitstream) > res.Bytes+64 || len(res.Bitstream) < res.Bytes/2 {
		t.Errorf("container %d bytes vs accounted %d", len(res.Bitstream), res.Bytes)
	}
}

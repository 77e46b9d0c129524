package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vcprof/internal/video"
)

// noisyPlane returns a w×h plane of random samples.
func noisyPlane(rng *rand.Rand, w, h int) *video.Plane {
	p := video.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = byte(rng.Intn(256))
	}
	return p
}

// perturbed returns a copy of p with about a third of its samples moved
// by up to ±24, so it differs from p but stays correlated with it.
func perturbed(rng *rand.Rand, p *video.Plane) *video.Plane {
	q := p.Clone()
	for i := range q.Pix {
		if rng.Intn(3) == 0 {
			q.Pix[i] = byte(min(max(int(q.Pix[i])+rng.Intn(49)-24, 0), 255))
		}
	}
	return q
}

// padded returns a view of p's samples at the top-left of a larger
// surface, as an encoder's aligned reconstruction holds them: a stride
// padX past the width and padY more rows, the padding all junk.
func padded(rng *rand.Rand, p *video.Plane, padX, padY int) *video.Plane {
	stride := p.W + padX
	pix := make([]byte, stride*(p.H+padY))
	for i := range pix {
		pix[i] = byte(rng.Intn(256))
	}
	for y := 0; y < p.H; y++ {
		copy(pix[y*stride:], p.Row(y))
	}
	return &video.Plane{W: p.W, H: p.H, Stride: stride, Pix: pix}
}

// paddedFrame is padded for all three planes of f.
func paddedFrame(rng *rand.Rand, f *video.Frame, padX, padY int) *video.Frame {
	return &video.Frame{
		Y:     padded(rng, f.Y, padX, padY),
		U:     padded(rng, f.U, padX/2, padY/2),
		V:     padded(rng, f.V, padX/2, padY/2),
		Index: f.Index,
	}
}

// sameBits fails t unless got and want are the same float64, bit for
// bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: %v (%#x) on strided views, %v (%#x) on compact planes",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestStridedViewsMatchCompactPlanes measures pairs of compact planes
// and the same samples read through strided views whose padding (past
// the width and below the last row) is junk: MSE, SSIM, SequencePSNR
// and SequenceSSIM give the same bits either way. The sizes cover odd
// widths and heights, partial SSIM windows at the right and bottom
// edges, and planes exactly one SSIM window wide or tall.
func TestStridedViewsMatchCompactPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sz := range []struct{ w, h int }{
		{8, 8}, {8, 19}, {23, 8}, {17, 13}, {64, 48}, {106, 60},
	} {
		for _, pad := range []struct{ x, y int }{{1, 0}, {7, 3}, {22, 4}} {
			t.Run(fmt.Sprintf("%dx%d/pad%dx%d", sz.w, sz.h, pad.x, pad.y), func(t *testing.T) {
				a := noisyPlane(rng, sz.w, sz.h)
				b := perturbed(rng, a)
				va, vb := padded(rng, a, pad.x, pad.y), padded(rng, b, pad.x, pad.y)

				want, err := MSE(a, b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := MSE(va, vb)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "MSE", got, want)
				if got == 0 {
					t.Fatal("the perturbed plane equals the original: the check compares nothing")
				}

				want, err = SSIM(a, b)
				if err != nil {
					t.Fatal(err)
				}
				got, err = SSIM(va, vb)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "SSIM", got, want)

				// Sequences of three 4:2:0 frames of this luma size.
				var ref, dec, vref, vdec []*video.Frame
				for i := 0; i < 3; i++ {
					r := &video.Frame{Y: noisyPlane(rng, sz.w, sz.h), U: noisyPlane(rng, sz.w/2, sz.h/2), V: noisyPlane(rng, sz.w/2, sz.h/2), Index: i}
					d := &video.Frame{Y: perturbed(rng, r.Y), U: perturbed(rng, r.U), V: perturbed(rng, r.V), Index: i}
					ref, dec = append(ref, r), append(dec, d)
					vref, vdec = append(vref, paddedFrame(rng, r, pad.x, pad.y)), append(vdec, paddedFrame(rng, d, pad.x, pad.y))
				}
				want, err = SequencePSNR(ref, dec)
				if err != nil {
					t.Fatal(err)
				}
				got, err = SequencePSNR(ref, vdec)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "SequencePSNR (compact source, strided reconstruction)", got, want)
				if got, err = SequencePSNR(vref, vdec); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "SequencePSNR", got, want)

				want, err = SequenceSSIM(ref, dec)
				if err != nil {
					t.Fatal(err)
				}
				got, err = SequenceSSIM(ref, vdec)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "SequenceSSIM (compact source, strided reconstruction)", got, want)
				if got, err = SequenceSSIM(vref, vdec); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "SequenceSSIM", got, want)
			})
		}
	}
}

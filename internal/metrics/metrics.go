// Package metrics implements the video quality and rate metrics used by
// the paper: PSNR, bitrate, rate-distortion curves and the Bjøntegaard
// delta rate (BD-Rate) between two encoders.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"vcprof/internal/video"
)

// MSE returns the mean squared error between two equally sized planes.
func MSE(a, b *video.Plane) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: plane size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum uint64
	for y := 0; y < a.H; y++ {
		ra, rb := a.Row(y), b.Row(y)
		for x := range ra {
			d := int(ra[x]) - int(rb[x])
			sum += uint64(d * d)
		}
	}
	return float64(sum) / float64(a.W*a.H), nil
}

// PSNR returns the peak signal-to-noise ratio in dB for 8-bit content.
// Identical planes return +Inf.
func PSNR(a, b *video.Plane) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// FramePSNR returns the weighted YUV PSNR of a frame pair using the
// conventional 4:1:1 luma/chroma weighting for 4:2:0 content.
func FramePSNR(a, b *video.Frame) (float64, error) {
	my, err := MSE(a.Y, b.Y)
	if err != nil {
		return 0, err
	}
	mu, err := MSE(a.U, b.U)
	if err != nil {
		return 0, err
	}
	mv, err := MSE(a.V, b.V)
	if err != nil {
		return 0, err
	}
	mse := (4*my + mu + mv) / 6
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// SequencePSNR averages per-frame PSNR across two equal-length frame
// sequences, the convention the paper cites for whole-video quality.
// Infinite per-frame values are clamped to 100 dB before averaging so a
// few lossless frames cannot dominate the mean.
func SequencePSNR(ref, dec []*video.Frame) (float64, error) {
	if len(ref) != len(dec) {
		return 0, fmt.Errorf("metrics: sequence length mismatch %d vs %d", len(ref), len(dec))
	}
	if len(ref) == 0 {
		return 0, errors.New("metrics: empty sequence")
	}
	var sum float64
	for i := range ref {
		p, err := FramePSNR(ref[i], dec[i])
		if err != nil {
			return 0, err
		}
		if math.IsInf(p, 1) || p > 100 {
			p = 100
		}
		sum += p
	}
	return sum / float64(len(ref)), nil
}

// BitrateKbps converts a total encoded size and duration into kilobits
// per second, the unit the paper reports.
func BitrateKbps(totalBytes int, frames, fps int) (float64, error) {
	if frames <= 0 || fps <= 0 {
		return 0, fmt.Errorf("metrics: invalid duration frames=%d fps=%d", frames, fps)
	}
	seconds := float64(frames) / float64(fps)
	return float64(totalBytes) * 8 / 1000 / seconds, nil
}

// RDPoint is one operating point on a rate-distortion curve.
type RDPoint struct {
	BitrateKbps float64
	PSNR        float64
}

// RDCurve is a set of operating points for one encoder configuration,
// ordered by bitrate after Sort.
type RDCurve []RDPoint

// sortByRate orders the curve by ascending bitrate (insertion sort: the
// curves have a handful of points).
func (c RDCurve) sortByRate() {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j].BitrateKbps < c[j-1].BitrateKbps; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// BDRate computes the Bjøntegaard delta rate of curve test relative to
// curve anchor: the average percent change in bitrate at equal PSNR. A
// negative result means the test encoder needs less bitrate for the same
// quality. Both curves need at least four points for the standard cubic
// fit of log-rate as a function of PSNR.
func BDRate(anchor, test RDCurve) (float64, error) {
	if len(anchor) < 4 || len(test) < 4 {
		return 0, fmt.Errorf("metrics: BDRate needs >=4 points per curve, got %d and %d", len(anchor), len(test))
	}
	a := append(RDCurve(nil), anchor...)
	b := append(RDCurve(nil), test...)
	a.sortByRate()
	b.sortByRate()
	for _, c := range []RDCurve{a, b} {
		for _, p := range c {
			if p.BitrateKbps <= 0 {
				return 0, fmt.Errorf("metrics: BDRate requires positive bitrates, got %v", p.BitrateKbps)
			}
		}
	}
	// Fit log(rate) = poly3(psnr) for each curve, integrate over the
	// overlapping PSNR interval, and convert the mean log-rate gap to a
	// percentage.
	ca, err := fitCubic(psnrs(a), logRates(a))
	if err != nil {
		return 0, err
	}
	cb, err := fitCubic(psnrs(b), logRates(b))
	if err != nil {
		return 0, err
	}
	lo := math.Max(minf(psnrs(a)), minf(psnrs(b)))
	hi := math.Min(maxf(psnrs(a)), maxf(psnrs(b)))
	if hi <= lo {
		return 0, fmt.Errorf("metrics: BDRate curves share no PSNR overlap [%v, %v]", lo, hi)
	}
	intA := integratePoly(ca, lo, hi)
	intB := integratePoly(cb, lo, hi)
	avgDiff := (intB - intA) / (hi - lo)
	return (math.Pow(10, avgDiff) - 1) * 100, nil
}

func psnrs(c RDCurve) []float64 {
	out := make([]float64, len(c))
	for i, p := range c {
		out[i] = p.PSNR
	}
	return out
}

func logRates(c RDCurve) []float64 {
	out := make([]float64, len(c))
	for i, p := range c {
		out[i] = math.Log10(p.BitrateKbps)
	}
	return out
}

func minf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// fitCubic performs a least-squares cubic polynomial fit y = c0 + c1·x +
// c2·x² + c3·x³ via the normal equations solved with Gaussian
// elimination with partial pivoting.
func fitCubic(x, y []float64) ([4]float64, error) {
	var c [4]float64
	if len(x) != len(y) || len(x) < 4 {
		return c, fmt.Errorf("metrics: cubic fit needs >=4 matching points, got %d/%d", len(x), len(y))
	}
	// Build normal equations A·c = b where A[i][j] = Σ x^(i+j).
	var pow [7]float64
	var rhs [4]float64
	for k := range x {
		xi := 1.0
		for p := 0; p <= 6; p++ {
			pow[p] += xi
			if p < 4 {
				rhs[p] += xi * y[k]
			}
			xi *= x[k]
		}
	}
	var m [4][5]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m[i][j] = pow[i+j]
		}
		m[i][4] = rhs[i]
	}
	for col := 0; col < 4; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		if math.Abs(m[col][col]) < 1e-12 {
			return c, errors.New("metrics: singular system in cubic fit (degenerate RD curve)")
		}
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for cc := col; cc <= 4; cc++ {
				m[r][cc] -= f * m[col][cc]
			}
		}
	}
	for i := 0; i < 4; i++ {
		c[i] = m[i][4] / m[i][i]
	}
	return c, nil
}

// integratePoly integrates the cubic c over [lo, hi].
func integratePoly(c [4]float64, lo, hi float64) float64 {
	anti := func(x float64) float64 {
		return c[0]*x + c[1]*x*x/2 + c[2]*x*x*x/3 + c[3]*x*x*x*x/4
	}
	return anti(hi) - anti(lo)
}

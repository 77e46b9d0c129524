package video

import (
	"context"
	"fmt"
	"math"

	"vcprof/internal/memo"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms, so clip content never depends on math/rand internals.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// GenerateOptions controls procedural clip synthesis.
type GenerateOptions struct {
	// Frames is the number of frames to synthesize. Zero selects the
	// clip's native frame count for a 5-second sequence (FPS*5), which is
	// usually far more than experiments need.
	Frames int
	// ScaleDiv divides the resolution linearly (0 or 1 = native).
	ScaleDiv int
	// CutAt, when positive, switches to entirely different scene content
	// from that frame index on — a hard scene cut for testing keyframe
	// placement and lookahead heuristics.
	CutAt int
}

// Generate synthesizes a clip for the catalog entry. Content is built
// from three entropy-scaled layers: a smooth illumination field (easy to
// predict), a band-limited texture field (stresses transforms and intra
// prediction), and translational moving objects plus sensor noise
// (stresses motion search and rate control). Entropy near zero yields
// screen-content-like static imagery (desktop, presentation); entropy
// near 8 yields noisy, high-motion imagery (hall, landscape).
func Generate(meta ClipMeta, opts GenerateOptions) (*Clip, error) {
	m := meta
	if opts.ScaleDiv > 1 {
		m = meta.Scale(opts.ScaleDiv)
	}
	n := opts.Frames
	if n == 0 {
		n = m.FPS * 5
	}
	if n < 1 {
		return nil, fmt.Errorf("video: invalid frame count %d", n)
	}
	g, err := newGenerator(m)
	if err != nil {
		return nil, err
	}
	var g2 *generator
	if opts.CutAt > 0 && opts.CutAt < n {
		m2 := m
		m2.Seed ^= 0xC0FFEE5CE11E
		if g2, err = newGenerator(m2); err != nil {
			return nil, err
		}
	}
	clip := &Clip{Meta: m, Frames: make([]*Frame, 0, n)}
	for i := 0; i < n; i++ {
		gen, idx := g, i
		if g2 != nil && i >= opts.CutAt {
			gen, idx = g2, i-opts.CutAt
		}
		f, err := gen.frame(idx)
		if err != nil {
			return nil, err
		}
		f.Index = i
		clip.Frames = append(clip.Frames, f)
	}
	return clip, nil
}

// clipMemo is the process's one cache of generated catalog clips, keyed
// by name, frame count and resolution divisor and shared by the
// harness's cells and the live sessions: concurrent requests for one
// clip generate it exactly once, distinct clips generate in parallel,
// an evicted clip regenerates on next use. ClipMemoCap bounds it by
// entry count; a full default-scale repro run touches 16 clips.
const ClipMemoCap = 32

type clipKey struct {
	name        string
	frames, div int
}

var clipMemo = memo.New[clipKey, *Clip](ClipMemoCap, nil)

// Memoized returns the catalog clip name at a frame count and
// resolution divisor, generating it on the first request. Every caller
// gets the same *Clip, so it is read-only to all of them; hit is false
// for the one whose request ran the generation. A caller waits only as
// long as ctx lives; generation itself is not cancellable, so whatever
// a generator started is kept for the next caller.
func Memoized(ctx context.Context, name string, frames, div int) (clip *Clip, hit bool, err error) {
	return clipMemo.Do(ctx, clipKey{name, frames, div}, func(context.Context) (*Clip, error) {
		meta, err := LookupClip(name)
		if err != nil {
			return nil, err
		}
		return Generate(meta, GenerateOptions{Frames: frames, ScaleDiv: div})
	})
}

// ResetClipMemo empties the clip memo and its counters.
func ResetClipMemo() { clipMemo.Reset() }

// ClipMemoStats reports the clip memo's traffic and occupancy.
func ClipMemoStats() memo.Stats { return clipMemo.Stats() }

type object struct {
	x, y   float64 // center, luma coordinates
	vx, vy float64 // velocity in pixels/frame
	w, h   float64
	luma   byte
	chroma [2]byte
}

type generator struct {
	meta    ClipMeta
	objects []object
	// texture holds a precomputed band-limited noise field sampled with a
	// per-frame phase shift, cheap enough to synthesize 2160p frames.
	texture  []byte
	texW     int
	texH     int
	noise    *rng
	noiseAmp int
	motion   float64
}

func newGenerator(m ClipMeta) (*generator, error) {
	if m.Width <= 0 || m.Height <= 0 {
		return nil, fmt.Errorf("video: invalid generator size %dx%d", m.Width, m.Height)
	}
	r := newRNG(m.Seed)
	g := &generator{meta: m, noise: newRNG(m.Seed ^ 0xD1B54A32D192ED03)}

	// Entropy → content intensity. vbench entropies span [0.2, 7.7].
	e := m.Entropy / 8.0
	g.noiseAmp = int(math.Round(e * e * 22)) // quadratic: quiet clips are very quiet
	g.motion = 0.5 + e*7.5                   // pixels/frame of dominant motion

	// Texture field: sum of directional cosines with random phases plus
	// white noise, amplitude scaled by entropy.
	g.texW, g.texH = 256, 256
	g.texture = make([]byte, g.texW*g.texH)
	amp := e * 70
	type wave struct{ fx, fy, ph, a float64 }
	waves := make([]wave, 6)
	for i := range waves {
		waves[i] = wave{
			fx: (r.float64()*2 - 1) * 0.9,
			fy: (r.float64()*2 - 1) * 0.9,
			ph: r.float64() * 2 * math.Pi,
			a:  amp * (0.3 + r.float64()),
		}
	}
	for y := 0; y < g.texH; y++ {
		for x := 0; x < g.texW; x++ {
			v := 0.0
			for _, w := range waves {
				v += w.a * math.Cos(w.fx*float64(x)+w.fy*float64(y)+w.ph)
			}
			v += (r.float64()*2 - 1) * amp * 0.5
			g.texture[y*g.texW+x] = clamp8(128 + v/3)
		}
	}

	// Moving objects: count and speed scale with entropy.
	nObj := 2 + int(e*10)
	g.objects = make([]object, nObj)
	for i := range g.objects {
		g.objects[i] = object{
			x:    r.float64() * float64(m.Width),
			y:    r.float64() * float64(m.Height),
			vx:   (r.float64()*2 - 1) * g.motion,
			vy:   (r.float64()*2 - 1) * g.motion * 0.5,
			w:    8 + r.float64()*float64(m.Width)/6,
			h:    8 + r.float64()*float64(m.Height)/6,
			luma: byte(40 + r.intn(176)),
			chroma: [2]byte{
				byte(64 + r.intn(128)),
				byte(64 + r.intn(128)),
			},
		}
	}
	return g, nil
}

func clamp8(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// frame renders display-order frame i.
func (g *generator) frame(i int) (*Frame, error) {
	m := g.meta
	f, err := NewFrame(m.Width, m.Height)
	if err != nil {
		return nil, err
	}
	f.Index = i

	// Global pan proportional to motion; texture phase drifts with it so
	// inter prediction has real translational structure to find.
	panX := int(math.Round(float64(i) * g.motion))
	panY := int(math.Round(float64(i) * g.motion * 0.3))

	// Luma: illumination gradient + panned texture.
	for y := 0; y < m.Height; y++ {
		row := f.Y.Row(y)
		ty := (y + panY) & (g.texH - 1)
		trow := g.texture[ty*g.texW:]
		base := 60 + (120*y)/m.Height
		for x := 0; x < m.Width; x++ {
			t := int(trow[(x+panX)&(g.texW-1)]) - 128
			row[x] = clamp8(float64(base + (60*x)/m.Width/2 + t))
		}
	}

	// Objects move with constant velocity, bouncing off frame edges.
	for oi := range g.objects {
		o := &g.objects[oi]
		cx := o.x + o.vx*float64(i)
		cy := o.y + o.vy*float64(i)
		cx = bounce(cx, float64(m.Width))
		cy = bounce(cy, float64(m.Height))
		x0, x1 := int(cx-o.w/2), int(cx+o.w/2)
		y0, y1 := int(cy-o.h/2), int(cy+o.h/2)
		fillRect(f.Y, x0, y0, x1, y1, o.luma)
		fillRect(f.U, x0/2, y0/2, x1/2, y1/2, o.chroma[0])
		fillRect(f.V, x0/2, y0/2, x1/2, y1/2, o.chroma[1])
	}

	// Sensor noise, entropy-scaled; zero-entropy clips stay noise-free.
	if g.noiseAmp > 0 {
		amp := uint64(2*g.noiseAmp + 1)
		pix := f.Y.Pix
		for j := 0; j < len(pix); j += 2 {
			n := g.noise.next()
			d0 := int(n%amp) - g.noiseAmp
			d1 := int((n>>32)%amp) - g.noiseAmp
			pix[j] = clampAdd(pix[j], d0)
			if j+1 < len(pix) {
				pix[j+1] = clampAdd(pix[j+1], d1)
			}
		}
	}

	// Chroma base: slow fields derived from position, plus objects drawn
	// above. Keep chroma cheap and smooth — codecs spend most effort on
	// luma and so do we.
	for y := 0; y < f.U.H; y++ {
		urow, vrow := f.U.Row(y), f.V.Row(y)
		for x := 0; x < f.U.W; x++ {
			if urow[x] == 0 {
				urow[x] = byte(112 + (x+panX)%32)
			}
			if vrow[x] == 0 {
				vrow[x] = byte(120 + (y+panY)%24)
			}
		}
	}
	return f, nil
}

func bounce(v, limit float64) float64 {
	if limit <= 0 {
		return 0
	}
	period := 2 * limit
	v = math.Mod(v, period)
	if v < 0 {
		v += period
	}
	if v > limit {
		v = period - v
	}
	return v
}

func clampAdd(p byte, d int) byte {
	v := int(p) + d
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func fillRect(p *Plane, x0, y0, x1, y1 int, v byte) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > p.W {
		x1 = p.W
	}
	if y1 > p.H {
		y1 = p.H
	}
	for y := y0; y < y1; y++ {
		row := p.Pix[y*p.Stride:]
		for x := x0; x < x1; x++ {
			row[x] = v
		}
	}
}

package encoders

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vcprof/internal/codec"
	"vcprof/internal/codec/entropy"
	"vcprof/internal/video"
)

// randomDAG builds a random schedule whose edges always point backward,
// so it is acyclic by construction.
func randomDAG(r *rand.Rand, n int) *Schedule {
	s := &Schedule{}
	for i := 0; i < n; i++ {
		s.Costs = append(s.Costs, uint64(r.Intn(50)+1))
		var deps []int
		for d := 0; d < i; d++ {
			if r.Intn(4) == 0 {
				deps = append(deps, d)
			}
		}
		s.Deps = append(s.Deps, deps)
	}
	return s
}

// criticalPath returns the longest dependency chain cost.
func criticalPath(s *Schedule) uint64 {
	finish := make([]uint64, len(s.Costs))
	var max uint64
	for i := range s.Costs {
		var ready uint64
		for _, d := range s.Deps[i] {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		finish[i] = ready + s.Costs[i]
		if finish[i] > max {
			max = finish[i]
		}
	}
	return max
}

// TestScheduleMakespanProperties checks list-scheduling invariants on
// random DAGs: the makespan is bounded below by both the critical path
// and work/cores, bounded above by total work, and never increases when
// cores are added.
func TestScheduleMakespanProperties(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(sizeRaw%40) + 1
		s := randomDAG(r, n)
		total := s.TotalWork()
		cp := criticalPath(s)
		prev := uint64(0)
		for cores := 1; cores <= 9; cores++ {
			span, busy, err := s.Makespan(cores)
			if err != nil {
				return false
			}
			if span > total || span < cp {
				return false // outside [criticalPath, totalWork]
			}
			if span < (total+uint64(cores)-1)/uint64(cores) {
				return false // beats the work bound
			}
			var busySum uint64
			for _, b := range busy {
				busySum += b
			}
			if busySum != total {
				return false // work conservation
			}
			if cores > 1 && span > prev {
				return false // more cores never slower under this list scheduler
			}
			prev = span
		}
		one, _, _ := s.Makespan(1)
		return one == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCoefBlockRoundTripQuick fuzzes the coefficient syntax with random
// sparse levels across all transform sizes.
func TestCoefBlockRoundTripQuick(t *testing.T) {
	f := func(seed int64, sizeSel uint8, density uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{4, 8, 16, 32}[sizeSel%4]
		levels := make([]int32, n*n)
		fill := int(density%100) + 1
		for i := range levels {
			if r.Intn(100) < fill {
				levels[i] = int32(r.Intn(4001) - 2000)
			}
		}
		enc := newEncoder(nil, 0)
		if err := writeCoefBlock(enc, newProbModel(), levels, n); err != nil {
			return false
		}
		dec := entropy.NewDecoder(enc.Finish())
		got, err := readCoefBlock(dec, newProbModel(), n)
		if err != nil {
			return false
		}
		for i := range levels {
			if got[i] != levels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMVRoundTripQuick fuzzes motion-vector coding.
func TestMVRoundTripQuick(t *testing.T) {
	f := func(mx, my, px, py int16) bool {
		mv := codec.MV{X: mx % 512, Y: my % 512}
		pred := codec.MV{X: px % 512, Y: py % 512}
		enc := newEncoder(nil, 0)
		pmE := newProbModel()
		writeMV(enc, pmE, mv, pred)
		dec := entropy.NewDecoder(enc.Finish())
		return readMV(dec, newProbModel(), pred) == mv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- cross-encoder property suite -----------------------------------
//
// The three properties below hold for every encoder family at every
// operating point, so they are checked on randomized (but seeded, hence
// reproducible) parameter grids rather than hand-picked cases. A
// failure message always carries the full operating point; re-running
// the named subtest replays it exactly.

// propPoint is one randomized operating point.
type propPoint struct {
	clip    string
	frames  int
	crf     int // AV1 scale 0–63; mapped into the family's range
	preset  int
	threads int
}

func (p propPoint) String() string {
	return fmt.Sprintf("%s f%d crf%d p%d t%d", p.clip, p.frames, p.crf, p.preset, p.threads)
}

// propClips spans the content classes (screen content, game, camera).
var propClips = []string{"desktop", "game1", "game2", "hall"}

// randomPoints draws seeded operating points for a family. CRF is kept
// off the extreme endpoints, where some families clamp to the same
// quantizer and points would alias.
func randomPoints(r *rand.Rand, enc Encoder, n int) []propPoint {
	pLo, pHi, _ := enc.PresetRange()
	pts := make([]propPoint, n)
	for i := range pts {
		pts[i] = propPoint{
			clip:    propClips[r.Intn(len(propClips))],
			frames:  2 + r.Intn(2),
			crf:     5 + r.Intn(54),
			preset:  pLo + r.Intn(pHi-pLo+1),
			threads: 1 + r.Intn(4),
		}
	}
	return pts
}

// famCRF maps an AV1-scale CRF into the family's own range, the same
// proportional mapping the harness grids use.
func famCRF(enc Encoder, crf int) int {
	_, hi := enc.CRFRange()
	return crf * hi / 63
}

// propSeed derives a stable per-family seed so each family replays its
// own grid independently of the others.
func propSeed(fam Family) int64 {
	var s int64 = 0x9E3779B9
	for _, c := range []byte(fam) {
		s = s*131 + int64(c)
	}
	return s
}

// TestCrossEncoderRoundTripAndDeterminism encodes randomized operating
// points for all five families and asserts, per point: the container
// decodes back bit-identically to the encoder's own reconstruction,
// and an immediately repeated encode reproduces the identical
// bitstream and instruction count (including at thread counts > 1 —
// worker scheduling must not leak into output).
func TestCrossEncoderRoundTripAndDeterminism(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			enc := MustNew(fam)
			r := rand.New(rand.NewSource(propSeed(fam)))
			for _, pt := range randomPoints(r, enc, 3) {
				clip := testClip(t, pt.clip, pt.frames, 16)
				var recon []*video.Frame
				opts := Options{CRF: famCRF(enc, pt.crf), Preset: pt.preset,
					Threads: pt.threads, KeepBitstream: true, recon: &recon}
				res, err := enc.Encode(context.Background(), clip, opts)
				if err != nil {
					t.Fatalf("%v: encode: %v", pt, err)
				}
				dec, err := DecodeBitstream(res.Bitstream)
				if err != nil {
					t.Fatalf("%v: decode: %v", pt, err)
				}
				assertFramesEqual(t, pt.String(), recon, dec)
				res2, err := enc.Encode(context.Background(), clip, opts)
				if err != nil {
					t.Fatalf("%v: re-encode: %v", pt, err)
				}
				if !bytes.Equal(res.Bitstream, res2.Bitstream) {
					t.Errorf("%v: bitstream differs between identical runs (%d vs %d bytes)",
						pt, len(res.Bitstream), len(res2.Bitstream))
				}
				if res.Insts != res2.Insts {
					t.Errorf("%v: instruction count differs between identical runs (%d vs %d)",
						pt, res.Insts, res2.Insts)
				}
			}
		})
	}
}

// TestCrossEncoderSizeMonotoneInCRF asserts the rate-control direction
// for every family: at well-separated CRF points (the quantizer maps
// are step functions, so adjacent points may tie) the lower CRF must
// produce the strictly larger bitstream.
func TestCrossEncoderSizeMonotoneInCRF(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			enc := MustNew(fam)
			r := rand.New(rand.NewSource(propSeed(fam) ^ 0x5bd1e995))
			for i := 0; i < 2; i++ {
				clipName := propClips[r.Intn(len(propClips))]
				clip := testClip(t, clipName, 2, 16)
				pLo, pHi, _ := enc.PresetRange()
				preset := pLo + r.Intn(pHi-pLo+1)
				crfLo := 5 + r.Intn(12)  // 5..16
				crfHi := 45 + r.Intn(12) // 45..56
				sizeAt := func(crf int) int {
					res, err := enc.Encode(context.Background(), clip, Options{CRF: famCRF(enc, crf), Preset: preset,
						Threads: 1, KeepBitstream: true})
					if err != nil {
						t.Fatalf("%s crf%d p%d: %v", clipName, crf, preset, err)
					}
					return len(res.Bitstream)
				}
				lo, hi := sizeAt(crfLo), sizeAt(crfHi)
				if lo <= hi {
					t.Errorf("%s p%d: size(crf%d)=%d not greater than size(crf%d)=%d",
						clipName, preset, crfLo, lo, crfHi, hi)
				}
			}
		})
	}
}

// TestDecodeBitstreamNeverPanics mutates valid bitstreams at random and
// requires the decoder to fail cleanly (error, not panic) or succeed.
func TestDecodeBitstreamNeverPanics(t *testing.T) {
	clip := testClip(t, "game2", 3, 16)
	res, err := MustNew(SVTAV1).Encode(context.Background(), clip, Options{CRF: 45, Preset: 6, KeepBitstream: true})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Bitstream
	f := func(seed int64, nmut uint8) bool {
		r := rand.New(rand.NewSource(seed))
		data := append([]byte{}, base...)
		for m := 0; m < int(nmut%8)+1; m++ {
			data[r.Intn(len(data))] ^= byte(1 << uint(r.Intn(8)))
		}
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("decoder panicked on mutated stream (seed %d): %v", seed, rec)
			}
		}()
		_, _ = DecodeBitstream(data) // error or success are both fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

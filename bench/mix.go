package main

import (
	"vcprof/internal/encoders"
)

// splitmix is splitmix64: the mix generator behind every workload, so
// a seed fixes the op list bit for bit on any Go release. The program
// under test never sees the seed, only the specs drawn from it.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn draws from [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a Fisher–Yates permutation of [0, n).
func (s *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mixRNG derives the generator for one (workload, pass) stream so
// passes draw independently and adding a pass never shifts another.
func mixRNG(seed uint64, workload string, pass int) *splitmix {
	s := &splitmix{state: seed}
	for _, c := range []byte(workload) {
		s.state ^= uint64(c)
		s.next()
	}
	s.state ^= uint64(pass) * 0xD6E8FEB86659FD93
	s.next()
	return s
}

// benchClips is the clip set every workload draws from: one per
// resolution-and-entropy corner the vbench catalog offers at a cost a
// 10 s run can afford (480p noisy, 720p mid, 720p busy, 1080p game).
var benchClips = []string{"cat", "cricket", "girl", "game1"}

// ladderClips are the two heaviest of benchClips, sampled by the cost
// ladder.
var ladderClips = []string{"girl", "game1"}

// point is one encoder operating point of a grid.
type point struct {
	fam    encoders.Family
	clip   string
	crf    int
	preset int
}

// midPreset is the family's middle preset on its own scale (the
// harness's fig4–7 choice): 4 for the AV1/VP9 family, 5 for x264/x265.
func midPreset(fam encoders.Family) int {
	lo, hi, _ := encoders.MustNew(fam).PresetRange()
	return (lo + hi + 1) / 2
}

// fastPreset is the fast-quartile preset live feeds need to hold the
// 30 fps deadline (vclive's calibrated choice), off steps further
// toward the fast end.
func fastPreset(fam encoders.Family, off int) int {
	lo, hi, reversed := encoders.MustNew(fam).PresetRange()
	quarter := (hi - lo) / 4
	if off > quarter {
		off = quarter
	}
	if reversed {
		return lo + quarter - off
	}
	return hi - quarter + off
}

// crfAnchor spreads n anchor CRFs over the family's range from CRF 1
// up (CRF 0 is left to the warm-up op, so no measured pass contains
// it). Anchors sit hi/n apart; a later cycle of a distinct-key
// workload shifts every anchor by one CRF step, which anchorShifts
// bounds so shifted anchors never meet.
func crfAnchor(fam encoders.Family, k, n int) int {
	_, hi := encoders.MustNew(fam).CRFRange()
	if n < 2 {
		return hi / 2
	}
	return 1 + k*hi/n
}

// anchorShifts is how many one-step shifts keep n anchors distinct in
// every family: the narrowest CRF range (x264/x265, 0–51) decides.
func anchorShifts(n int) int { return 51/n - 1 }

// gridPoints builds families × clips × anchors × presets in canonical
// order; the caller shuffles. anchors picks which of the nAnchors CRF
// anchors to use (nil = all), shift moves them all, presetOffs are
// relative to the family's mid preset.
//
// The grid is the same on every seed. The contract compares medians
// across seeds, per-op cost spans 100× across the grid, and an
// allocation count should repeat to the digit — so the seed decides
// the order ops arrive in and their scheduling hints, never what they
// are.
func gridPoints(clips []string, nAnchors int, anchors []int, shift int, presetOffs []int) []point {
	if anchors == nil {
		for k := 0; k < nAnchors; k++ {
			anchors = append(anchors, k)
		}
	}
	var out []point
	for _, fam := range encoders.Families() {
		for _, clip := range clips {
			for _, k := range anchors {
				for _, po := range presetOffs {
					out = append(out, point{
						fam: fam, clip: clip,
						crf:    crfAnchor(fam, k, nAnchors) + shift,
						preset: midPreset(fam) + po,
					})
				}
			}
		}
	}
	return out
}

// deal splits a canonical grid into n passes of equal composition.
// Items sharing a stratum (the grid dimensions that set an op's cost)
// go to consecutive passes, and each new stratum starts one pass
// later than the last, so every pass gets the same count from every
// stratum and no pass collects all the low CRFs. With per-stratum
// counts a multiple of n the passes are exact permutations of each
// other in the stratified dimensions.
func deal[T any](items []T, stratum func(T) string, n int) [][]T {
	out := make([][]T, n)
	seen := map[string]int{} // stratum → items dealt so far
	first := map[string]int{}
	for _, it := range items {
		k := stratum(it)
		if _, ok := first[k]; !ok {
			first[k] = len(first)
		}
		p := (first[k] + seen[k]) % n
		seen[k]++
		out[p] = append(out[p], it)
	}
	return out
}

func famClip(pt point) string { return string(pt.fam) + "/" + pt.clip }

// shuffled returns pts reordered by the stream's permutation.
func shuffled[T any](rng *splitmix, pts []T) []T {
	out := make([]T, len(pts))
	for i, j := range rng.perm(len(pts)) {
		out[i] = pts[j]
	}
	return out
}

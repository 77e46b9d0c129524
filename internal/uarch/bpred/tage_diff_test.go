package bpred

import (
	"fmt"
	"testing"

	"vcprof/internal/trace"
)

// refFold is refTAGE.foldHist on a bare outcome slice (newest first).
func refFold(hist []bool, n int, width uint) uint64 {
	return (&refTAGE{ghist: hist}).foldHist(n, width)
}

// TestFoldPushMatchesFromScratch drives fold.push over a random
// outcome stream for every history length and width the geometries
// could use, and more: n < w, n a multiple of w, n == 1, w == 1.
func TestFoldPushMatchesFromScratch(t *testing.T) {
	const steps = 600 // three times the longest window: every outcome leaves it
	rng := uint64(0x9E3779B97F4A7C15)
	outcomes := make([]bool, steps)
	for i := range outcomes {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		outcomes[i] = rng>>33&1 == 1
	}
	for n := 1; n <= 200; n++ {
		for w := uint(1); w <= 16; w++ {
			f := newFold(n, w)
			var h history
			ref := make([]bool, n) // newest first
			for step, taken := range outcomes {
				var in uint64
				if taken {
					in = 1
				}
				f.push(&h, in^h.bit(uint8(n-1)))
				h.push(in)
				copy(ref[1:], ref)
				ref[0] = taken
				if want := refFold(ref, n, w); f.val != want {
					t.Fatalf("n=%d w=%d step %d: fold %#x, from scratch %#x", n, w, step, f.val, want)
				}
			}
		}
	}
}

// diffStream is the branch stream of the TAGE differential test:
// biased, periodic, loop-shaped and random branches over a few hundred
// pcs, in phases so the tables see both learnable and hostile input.
func diffStream(i int, rng *uint64) (pc uint64, taken bool) {
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	r := *rng
	switch (i / 4096) % 4 {
	case 0: // periodic per-pc patterns
		k := uint64(i % 37)
		return 0x400000 + k*12, (i/37)%(int(k)%7+2) != 0
	case 1: // random pcs, random outcomes
		return 0x500000 + (r>>8)%4096*4, r>>40&1 == 1
	case 2: // nested loops with fixed trip counts
		if i%24 == 23 {
			return 0x600040, i%(24*9) != 24*9-1
		}
		return 0x600000, true
	default: // biased branches over a wide text segment
		return 0x10000 + (r>>12)%512*8208, r>>50%16 != 0
	}
}

// stepBoth runs one Step on the fast predictor and one Predict/Update
// on the reference and fails on any difference in the prediction or,
// going in, in any component's index or tag (what Step is about to
// compute from its folds).
func stepBoth(t testing.TB, fast *TAGE, ref *refTAGE, i int, pc uint64, taken bool) {
	t.Helper()
	for ci := range fast.comps {
		idx, tag := ref.compIndex(ci, pc), ref.compTag(ci, pc)
		if c := &fast.comps[ci]; c.index(pc) != idx || c.tag(pc) != tag {
			t.Fatalf("%s step %d pc %#x comp %d: index/tag %#x/%#x, reference %#x/%#x",
				fast.name, i, pc, ci, c.index(pc), c.tag(pc), idx, tag)
		}
	}
	fp, rp := fast.Step(pc, taken), ref.Predict(pc)
	ref.Update(pc, taken)
	if fp != rp {
		t.Fatalf("%s step %d pc %#x: predicted %v, reference %v", fast.name, i, pc, fp, rp)
	}
}

// sameTables fails unless both predictors hold the same state.
func sameTables(t testing.TB, fast *TAGE, ref *refTAGE) {
	t.Helper()
	for i := range fast.base {
		if fast.base[i] != ref.base[i] {
			t.Fatalf("%s: base[%d] = %d, reference %d", fast.name, i, fast.base[i], ref.base[i])
		}
	}
	for ci := range fast.comps {
		for i, e := range fast.comps[ci].entries {
			if e != ref.comps[ci].entries[i] {
				t.Fatalf("%s: comp %d entry %d = %+v, reference %+v", fast.name, ci, i, e, ref.comps[ci].entries[i])
			}
		}
	}
	for age := 0; age < len(ref.ghist); age++ {
		if (fast.ghist.bit(uint8(age)) == 1) != ref.ghist[age] {
			t.Fatalf("%s: history age %d differs", fast.name, age)
		}
	}
	if fast.useAltOnNA != ref.useAltOnNA || fast.rng != ref.rng {
		t.Fatalf("%s: useAltOnNA/rng %d/%#x, reference %d/%#x", fast.name, fast.useAltOnNA, fast.rng, ref.useAltOnNA, ref.rng)
	}
}

func newBoth(t testing.TB, sizeBytes int) (*TAGE, *refTAGE) {
	t.Helper()
	fast, err := NewTAGE(sizeBytes)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefTAGE(sizeBytes)
	if err != nil {
		t.Fatal(err)
	}
	return fast, ref
}

// TestTAGEFastVsRef is the differential wall for the fold-register
// TAGE: at the smallest, the two paper and the largest budgets, every
// prediction, every component index and tag, and the final table state
// equal the from-scratch reference over 300k branches with a Reset in
// the middle.
func TestTAGEFastVsRef(t *testing.T) {
	n := 300_000
	if testing.Short() {
		n = 40_000
	}
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("%dKB", size>>10), func(t *testing.T) {
			fast, ref := newBoth(t, size)
			rng := uint64(size) | 1
			for i := 0; i < n; i++ {
				if i == n/2+17 {
					fast.Reset()
					ref.Reset()
				}
				pc, taken := diffStream(i, &rng)
				stepBoth(t, fast, ref, i, pc, taken)
			}
			sameTables(t, fast, ref)
		})
	}
}

// DiffTAGEOnWindow runs the differential check over recorded branches.
// It is exported for window_test.go, which sits in package bpred_test
// because recording a window needs perf, and perf imports this
// package.
func DiffTAGEOnWindow(t *testing.T, sizeBytes int, branches []trace.MicroOp) {
	fast, ref := newBoth(t, sizeBytes)
	for i, b := range branches {
		stepBoth(t, fast, ref, i, uint64(b.PC), b.Taken)
	}
	sameTables(t, fast, ref)
}

// FuzzTAGEFastVsRef turns bytes into a (pc, taken) stream — three
// bytes a branch: two of pc, one whose low bit is the outcome, whose
// bit 1 moves the pc by its upper bits and whose value 0xFF resets
// both predictors — and checks the one-call TAGE against the two-call
// reference at both paper budgets.
func FuzzTAGEFastVsRef(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0x01, 0x10, 0x00, 0x00, 0x10, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int{8 << 10, 64 << 10} {
			fast, ref := newBoth(t, size)
			for i := 0; i+2 < len(data); i += 3 {
				pc := 0x400000 + uint64(data[i])<<2 + uint64(data[i+1])<<10
				ctl := data[i+2]
				if ctl == 0xFF {
					fast.Reset()
					ref.Reset()
					continue
				}
				if ctl&2 != 0 {
					pc ^= uint64(ctl>>2) << 3
				}
				stepBoth(t, fast, ref, i/3, pc, ctl&1 == 1)
			}
			sameTables(t, fast, ref)
		}
	})
}

package bpred_test

import (
	"fmt"
	"testing"

	"vcprof/internal/uarch/bpred"
)

// A law is a closed form no predictor implementation shares code
// with: over the n branches that follow warm-up, every named
// predictor's miss count lies in [lo, hi] — or, where under names a
// predictor, exceeds that one's count by no more than slack.
type law struct {
	name    string
	stream  func(i int) (pc uint64, taken bool)
	warm, n int
	preds   []string
	lo, hi  int
	under   string
	slack   int
}

// historyPredictors keep at least 12 outcomes of global history.
var historyPredictors = []string{
	"gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB",
	"perceptron-8KB", "perceptron-64KB", "tage-l-8KB", "tage-l-64KB",
}

func misses(t *testing.T, name string, l law) int {
	t.Helper()
	p, err := bpred.NewByName(name)
	if err != nil {
		t.Fatal(err)
	}
	miss := 0
	for i := 0; i < l.warm+l.n; i++ {
		pc, taken := l.stream(i)
		if p.Step(pc, taken) != taken && i >= l.warm {
			miss++
		}
	}
	return miss
}

func TestClosedForms(t *testing.T) {
	var laws []law

	// A 2-bit counter on a loop of N taken iterations and an exit sits
	// at 3 or 2: in steady state it mispredicts the exit and nothing
	// else.
	for _, trip := range []int{2, 3, 7, 50, 333} {
		const execs = 40
		laws = append(laws, law{
			name:   fmt.Sprintf("bimodal misses once per exit of a %d-trip loop", trip),
			stream: func(i int) (uint64, bool) { return 0x4000, i%(trip+1) != trip },
			warm:   4 * (trip + 1), n: execs * (trip + 1),
			preds: []string{"bimodal-8KB"}, lo: execs, hi: execs,
		})
	}

	// A single branch repeating a k-outcome pattern is a function of
	// its last k outcomes: a predictor that sees that many learns it
	// exactly; a per-pc counter, which sees none, misses at least once
	// a period. Two patterns a period: a loop's (k-1 taken, one not)
	// and an irregular word.
	for k := 2; k <= 12; k++ {
		words := []uint{1<<(k-1) - 1}
		if w := uint(0xA6D&(1<<k-1) | 1); w != words[0] {
			words = append(words, w)
		}
		for _, word := range words {
			stream := func(i int) (uint64, bool) { return 0x8000, word>>(i%k)&1 == 1 }
			name := fmt.Sprintf("period %d pattern %0*b", k, k, word)
			laws = append(laws,
				law{name: name + " is learned from history", stream: stream,
					warm: 60_000, n: 50 * k, preds: historyPredictors},
				law{name: name + " defeats a counter", stream: stream,
					warm: 60_000, n: 50 * k, preds: []string{"bimodal-8KB"}, lo: 50, hi: 50 * k})
		}
	}

	// Eight times the tables never cost more than noise on what the
	// encoders actually execute.
	window := recordedBranches(t)
	laws = append(laws, law{
		name:   "tage-64KB within 1% of tage-8KB on the recorded window",
		stream: func(i int) (uint64, bool) { return uint64(window[i].PC), window[i].Taken },
		n:      len(window), preds: []string{"tage-64KB"}, under: "tage-8KB", slack: len(window) / 100,
	})

	// The loop overlay overrides TAGE only where it has been paying
	// off, and a nest of fixed-trip loops is where it pays: an inner
	// loop of 23 closed by an outer of 9, trips past what the short
	// components hold.
	nest := func(i int) (uint64, bool) {
		if i%24 == 23 {
			return 0x600040, i%(24*9) != 24*9-1
		}
		return 0x600000, true
	}
	for _, size := range []string{"8KB", "64KB"} {
		laws = append(laws, law{
			name: "tage-l-" + size + " no worse than tage-" + size + " on a fixed-trip loop nest", stream: nest,
			n: 200_000, preds: []string{"tage-l-" + size}, under: "tage-" + size,
		})
	}

	for _, l := range laws {
		lo, hi := l.lo, l.hi
		if l.under != "" {
			hi = misses(t, l.under, l) + l.slack
		}
		for _, name := range l.preds {
			if got := misses(t, name, l); got < lo || got > hi {
				t.Errorf("%s: %s missed %d of %d, want [%d, %d]", l.name, name, got, l.n, lo, hi)
			}
		}
	}
}

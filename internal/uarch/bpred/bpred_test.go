package bpred

import (
	"fmt"
	"math/bits"
	"testing"

	"vcprof/internal/trace"
)

// runTrace drives a predictor over a synthetic branch stream and
// returns its miss rate.
func runTrace(p Predictor, stream func(i int) (pc uint64, taken bool), n int) float64 {
	miss := 0
	for i := 0; i < n; i++ {
		pc, taken := stream(i)
		if p.Step(pc, taken) != taken {
			miss++
		}
	}
	return float64(miss) / float64(n)
}

func allPredictors(t *testing.T) []Predictor {
	t.Helper()
	var out []Predictor
	for _, name := range append(PaperSet(), "bimodal-8KB", "perceptron-8KB") {
		p, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestAlwaysTakenLearnedByAll(t *testing.T) {
	for _, p := range allPredictors(t) {
		mr := runTrace(p, func(i int) (uint64, bool) { return 0x4000, true }, 10000)
		if mr > 0.01 {
			t.Errorf("%s: miss rate %v on always-taken branch, want ~0", p.Name(), mr)
		}
	}
}

func TestShortPatternNeedsHistory(t *testing.T) {
	// Period-4 pattern T T T N: bimodal cannot learn it, history-based
	// predictors can.
	pattern := []bool{true, true, true, false}
	stream := func(i int) (uint64, bool) { return 0x4000, pattern[i%4] }
	bim, err := NewBimodal(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	bimMR := runTrace(bim, stream, 20000)
	if bimMR < 0.2 {
		t.Errorf("bimodal miss rate %v on period-4 pattern, expected >0.2", bimMR)
	}
	for _, name := range []string{"gshare-32KB", "tage-8KB", "tage-64KB"} {
		p, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mr := runTrace(p, stream, 20000)
		if mr > 0.05 {
			t.Errorf("%s: miss rate %v on period-4 pattern, want near 0", name, mr)
		}
	}
}

func TestTAGELearnsLongHistoryPattern(t *testing.T) {
	// A single branch with a period-40 direction pattern ("111" then 37
	// zeros): disambiguating the position inside the long zero run needs
	// ~40 bits of history. gshare-2KB folds only 13 history bits and
	// must miss at the onset of every period; TAGE-64KB's long-history
	// components capture it.
	stream := func(i int) (uint64, bool) { return 0x8000, i%40 < 3 }
	tage, err := NewTAGE(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGshare(2 << 10)
	if err != nil {
		t.Fatal(err)
	}
	tageMR := runTrace(tage, stream, 60000)
	gshareMR := runTrace(g2, stream, 60000)
	if tageMR >= gshareMR {
		t.Errorf("tage-64KB (%v) not better than gshare-2KB (%v) on period-40 pattern", tageMR, gshareMR)
	}
	if tageMR > 0.02 {
		t.Errorf("tage-64KB miss rate %v on learnable long pattern, want <2%%", tageMR)
	}
}

// conflictStream emulates 2048 static branches, each with a fixed
// period-16 direction pattern: learning it needs one counter per
// (PC, history-phase) pair — 32Ki contexts, far beyond a 2KB gshare's
// 8Ki counters but comfortably inside a 32KB one. Directions are a
// 50/50 hash so aliasing is destructive rather than constructive.
func conflictStream(i int) (uint64, bool) {
	pc := uint64(0x10000 + (i%2048)*8208) // spread over ~24 bits of text, like a large binary
	phase := (i / 2048) % 16
	h := (pc*2654435761 + uint64(phase)*40503) * 2654435761
	taken := h>>24&1 == 0
	return pc, taken
}

func TestBiggerTablesReduceAliasing(t *testing.T) {
	g2, _ := NewGshare(2 << 10)
	g32, _ := NewGshare(32 << 10)
	const n = 2_500_000 // ~75 visits per context: past warmup, into steady state
	mr2 := runTrace(g2, conflictStream, n)
	mr32 := runTrace(g32, conflictStream, n)
	// Gshare's XOR index compresses PC and history entropy, so synthetic
	// streams cannot force a fixed capacity ordering; the product-level
	// ordering on real encoder traces is asserted by the harness tests
	// (TestFig8PredictorOrdering). Here: the bigger table must never be
	// meaningfully worse.
	if mr32 > mr2*1.1 {
		t.Errorf("gshare-32KB (%v) meaningfully worse than gshare-2KB (%v) under aliasing", mr32, mr2)
	}
	t8, _ := NewTAGE(8 << 10)
	t64, _ := NewTAGE(64 << 10)
	mr8 := runTrace(t8, conflictStream, n)
	mr64 := runTrace(t64, conflictStream, n)
	if mr64 > mr8 {
		t.Errorf("tage-64KB (%v) worse than tage-8KB (%v) under aliasing", mr64, mr8)
	}
}

// storageBits reads a predictor's table budget in bits off its geometry:
// 2-bit counters, 8-bit perceptron weights, TAGE entries of a tag, a
// 3-bit counter and 2 useful bits, loop entries of 52 bits.
func storageBits(p Predictor) int {
	switch p := p.(type) {
	case *Bimodal:
		return 2 * len(p.table)
	case *Gshare:
		return 2 * len(p.table)
	case *Perceptron:
		return 8 * len(p.weights)
	case *TAGE:
		n := 2 * len(p.base)
		for _, c := range p.comps {
			n += len(c.entries) * (bits.OnesCount64(c.tagMask) + 3 + 2)
		}
		return n
	case *TAGEL:
		return storageBits(p.tage) + len(p.loop.entries)*(16+16+16+3+1)
	}
	panic(fmt.Sprintf("storageBits: no geometry for %T", p))
}

func TestPredictorSizes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxBits int
	}{
		{"gshare-2KB", 2 * 8 << 10},
		{"gshare-32KB", 32 * 8 << 10},
		{"tage-8KB", 8 * 8 << 10},
		{"tage-64KB", 64 * 8 << 10},
		{"perceptron-8KB", 8 * 8 << 10},
	} {
		p, err := NewByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if storageBits(p) > tc.maxBits {
			t.Errorf("%s holds %d bits, budget is %d", tc.name, storageBits(p), tc.maxBits)
		}
		if storageBits(p) < tc.maxBits/4 {
			t.Errorf("%s uses only %d of %d bits; geometry wastes the budget", tc.name, storageBits(p), tc.maxBits)
		}
		if p.Name() != tc.name {
			t.Errorf("Name() = %q, want %q", p.Name(), tc.name)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewGshare(3000); err == nil {
		t.Error("gshare accepted non-power-of-two size")
	}
	if _, err := NewBimodal(-1); err == nil {
		t.Error("bimodal accepted negative entries")
	}
	if _, err := NewTAGE(1234); err == nil {
		t.Error("TAGE accepted unsupported budget")
	}
	if _, err := NewPerceptron(999); err == nil {
		t.Error("perceptron accepted non-power-of-two size")
	}
	if _, err := NewByName("oracle"); err == nil {
		t.Error("NewByName accepted unknown predictor")
	}
}

// everyName lists what NewByName accepts.
var everyName = Names()

func TestResetRestoresColdBehaviour(t *testing.T) {
	// A Reset predictor must be indistinguishable from a new one,
	// prediction by prediction (cbp.Run resets between traces). The
	// warm-up runs every phase of diffStream, far past the longest
	// history (180 outcomes), so stale history or fold registers would
	// show.
	const n = 5 * 4096
	for _, name := range everyName {
		used, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(7)
		for i := 0; i < n; i++ {
			pc, taken := diffStream(i, &rng)
			used.Step(pc, taken)
		}
		used.Reset()
		for i := 0; i < n; i++ {
			pc, taken := diffStream(i, &rng)
			if u, f := used.Step(pc, taken), fresh.Step(pc, taken); u != f {
				t.Fatalf("%s: prediction %d after Reset is %v, a new predictor says %v", name, i, u, f)
			}
		}
	}
}

func TestMonitorCounts(t *testing.T) {
	p, err := NewByName("gshare-2KB")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p)
	for i := 0; i < 100; i++ {
		m.Branch(trace.PC(0x4000), true)
	}
	if m.Branches != 100 {
		t.Errorf("Branches = %d, want 100", m.Branches)
	}
	// Warmup misses only: the counter trains in ~2, and gshare's
	// changing history costs a handful more until the all-taken history
	// saturates.
	if m.Mispredict == 0 || m.Mispredict > 20 {
		t.Errorf("Mispredict = %d, want only warmup misses (<20)", m.Mispredict)
	}
	if m.MissRate() != float64(m.Mispredict)/100 {
		t.Error("MissRate inconsistent with counters")
	}
	if m.MPKI(100_000) != float64(m.Mispredict)/100 {
		t.Error("MPKI inconsistent")
	}
	empty := NewMonitor(p)
	if empty.MissRate() != 0 || empty.MPKI(0) != 0 {
		t.Error("empty monitor should report 0")
	}
}

// TestMonitorLoopEqualsBranches: for every predictor, a monitor fed
// counted loops through Loop ends with the counters (taken outcomes
// too) of one fed the same branches one at a time, and the two
// predictors agree on every branch that follows. Trip counts span 1
// (the lone not-taken) to past the longest history.
func TestMonitorLoopEqualsBranches(t *testing.T) {
	for _, name := range everyName {
		pr, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		byRun, byEvent := NewMonitor(pr), NewMonitor(pe)
		rng := uint64(11)
		for i := 0; i < 3000; i++ {
			pc, taken := diffStream(i, &rng)
			iters := 1 + int(rng>>33%7)
			if i%97 == 0 {
				iters = 150 + i%100
			}
			loopPC := trace.PC(0x500000 + pc&0xF0)
			byRun.Loop(loopPC, iters)
			for k := 1; k < iters; k++ {
				byEvent.Branch(loopPC, true)
			}
			byEvent.Branch(loopPC, false)
			// A data-dependent branch between loops, as in a kernel.
			byRun.Branch(trace.PC(pc), taken)
			byEvent.Branch(trace.PC(pc), taken)
			if byRun.Branches != byEvent.Branches || byRun.Mispredict != byEvent.Mispredict || byRun.Taken != byEvent.Taken {
				t.Fatalf("%s after loop %d (%d iterations): %d/%d (%d taken) by run, %d/%d (%d taken) by event", name, i, iters,
					byRun.Mispredict, byRun.Branches, byRun.Taken, byEvent.Mispredict, byEvent.Branches, byEvent.Taken)
			}
		}
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	lp, err := NewLoopPredictor(64)
	if err != nil {
		t.Fatal(err)
	}
	// A loop with trip count 7 (7 taken, 1 not-taken).
	const pc = 0x8000
	run := func() (miss int) {
		for e := 0; e < 50; e++ {
			for i := 0; i < 8; i++ {
				taken := i < 7
				pred, conf := lp.Predict(pc)
				if conf && pred != taken {
					miss++
				}
				lp.Update(pc, taken)
			}
		}
		return
	}
	run() // training
	if miss := run(); miss != 0 {
		t.Errorf("trained loop predictor missed %d times on a fixed trip count", miss)
	}
	// A varying trip count must never reach confidence.
	lp.Reset()
	trip := 3
	confident := false
	for e := 0; e < 60; e++ {
		for i := 0; i <= trip; i++ {
			if _, conf := lp.Predict(0x9000); conf {
				confident = true
			}
			lp.Update(0x9000, i < trip)
		}
		trip = 3 + e%5
	}
	if confident {
		t.Error("loop predictor gained confidence on an unstable trip count")
	}
	if _, err := NewLoopPredictor(63); err == nil {
		t.Error("accepted non-power-of-two entries")
	}
}

func TestTAGELBeatsTAGEOnLoopHeavyStream(t *testing.T) {
	// Interleave a long fixed-trip loop (period 50: beyond TAGE-8KB's
	// folded reach at this budget) with noise branches.
	stream := func(i int) (uint64, bool) {
		if i%2 == 0 {
			j := (i / 2) % 50
			return 0xA000, j < 49
		}
		h := uint64(i) * 0x9E3779B97F4A7C15
		h ^= h >> 29
		return 0xB000 + (h%8)*16, h>>13&1 == 0
	}
	tage, err := NewTAGE(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	tagel, err := NewTAGEL(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	base := runTrace(tage, stream, 100000)
	hybrid := runTrace(tagel, stream, 100000)
	if hybrid >= base {
		t.Errorf("tage-l (%v) not better than tage (%v) on a loop-heavy stream", hybrid, base)
	}
	if tagel.Name() != "tage-l-8KB" || storageBits(tagel) <= storageBits(tage) {
		t.Error("hybrid identity wrong")
	}
	if _, err := NewByName("tage-l-64KB"); err != nil {
		t.Errorf("registry missing tage-l-64KB: %v", err)
	}
}

// TestStepAndLoopDoNotAllocate: a branch through any shipped predictor,
// by Step or through Monitor.Loop, allocates nothing.
func TestStepAndLoopDoNotAllocate(t *testing.T) {
	for _, name := range Names() {
		p, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(p)
		var pc uint64
		if n := testing.AllocsPerRun(1000, func() {
			pc += 0x44
			p.Step(pc, pc&0x80 != 0)
			m.Loop(trace.PC(pc), int(pc>>2&7))
		}); n != 0 {
			t.Errorf("%s: Step/Monitor.Loop allocate %v allocs/op, want 0", name, n)
		}
	}
}

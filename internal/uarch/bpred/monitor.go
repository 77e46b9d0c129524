package bpred

import (
	"fmt"

	"vcprof/internal/memo"
	"vcprof/internal/trace"
)

// Monitor wraps a predictor as a live trace.BranchSink, counting
// predictions, mispredictions and taken outcomes as an encode runs —
// the substitute for reading the hardware branch counters with perf.
type Monitor struct {
	P          Predictor
	Branches   uint64
	Mispredict uint64
	Taken      uint64
}

// NewMonitor wraps p.
func NewMonitor(p Predictor) *Monitor { return &Monitor{P: p} }

// Branch implements trace.BranchSink.
func (m *Monitor) Branch(pc trace.PC, taken bool) {
	m.Branches++
	if taken {
		m.Taken++
	}
	if m.P.Step(uint64(pc), taken) != taken {
		m.Mispredict++
	}
}

// Loop implements trace.LoopSink: the iters branches of a counted loop,
// all but the last taken. The predictor and pc are held in locals and
// Branches is added once; written as iters calls of Branch the same
// loop cost a stat cell ~7% more.
func (m *Monitor) Loop(pc trace.PC, iters int) {
	p, at := m.P, uint64(pc)
	for i := 1; i < iters; i++ {
		if !p.Step(at, true) {
			m.Mispredict++
		}
	}
	if p.Step(at, false) {
		m.Mispredict++
	}
	m.Branches += uint64(iters)
	m.Taken += uint64(iters - 1)
}

// MissRate returns mispredictions per branch.
func (m *Monitor) MissRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredict) / float64(m.Branches)
}

// MPKI returns mispredictions per kilo-instruction.
func (m *Monitor) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(m.Mispredict) / (float64(instructions) / 1000)
}

// byName is the one table of report names: the predictors the paper
// studies, then the ablation extras. under names the TAGE a hybrid is
// an overlay on.
var byName = []struct {
	name  string
	build func() (Predictor, error)
	under string
}{
	{name: "gshare-2KB", build: func() (Predictor, error) { return NewGshare(2 << 10) }},
	{name: "gshare-32KB", build: func() (Predictor, error) { return NewGshare(32 << 10) }},
	{name: "tage-8KB", build: func() (Predictor, error) { return NewTAGE(8 << 10) }},
	{name: "tage-64KB", build: func() (Predictor, error) { return NewTAGE(64 << 10) }},
	{name: "bimodal-8KB", build: func() (Predictor, error) { return NewBimodal(32 << 10) }}, // 32K 2-bit counters = 8KB
	{name: "perceptron-8KB", build: func() (Predictor, error) { return NewPerceptron(8 << 10) }},
	{name: "perceptron-64KB", build: func() (Predictor, error) { return NewPerceptron(64 << 10) }},
	{name: "tage-l-8KB", build: func() (Predictor, error) { return NewTAGEL(8 << 10) }, under: "tage-8KB"},
	{name: "tage-l-64KB", build: func() (Predictor, error) { return NewTAGEL(64 << 10) }, under: "tage-64KB"},
}

// NewByName constructs a predictor by its report name.
func NewByName(name string) (Predictor, error) {
	for _, p := range byName {
		if p.name == name {
			return p.build()
		}
	}
	return nil, fmt.Errorf("bpred: unknown predictor %q", name)
}

// idle holds released predictors by name: Reset is exactly cold
// (TestResetRestoresColdBehaviour), so a used one is as good as new.
var idle memo.Free[string, Predictor]

// Acquire returns the named predictor in its reset state, reusing an
// idle one if there is one; the caller owns it until Release.
func Acquire(name string) (Predictor, error) {
	if p, ok := idle.Take(name); ok {
		p.Reset()
		return p, nil
	}
	return NewByName(name)
}

// Release hands back a predictor from Acquire; the caller must not use
// it afterwards.
func Release(p Predictor) { idle.Give(p.Name(), p) }

// TAGEUnder returns the name of the TAGE a hybrid name is built over
// (the *TAGEL's StepBoth predicts as that one does); any other name has
// none.
func TAGEUnder(name string) string {
	for _, p := range byName {
		if p.name == name {
			return p.under
		}
	}
	return ""
}

// Names lists every name NewByName accepts.
func Names() []string {
	names := make([]string, len(byName))
	for i, p := range byName {
		names[i] = p.name
	}
	return names
}

// PaperSet returns the four predictors of Figs. 8–10 in presentation
// order.
func PaperSet() []string {
	return []string{"gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB"}
}

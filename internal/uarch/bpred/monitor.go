package bpred

import (
	"fmt"

	"vcprof/internal/trace"
)

// Monitor wraps a predictor as a live trace.BranchSink, counting
// predictions and mispredictions as an encode runs — the substitute for
// reading the hardware branch-miss counter with perf.
type Monitor struct {
	P          Predictor
	Branches   uint64
	Mispredict uint64
}

// NewMonitor wraps p.
func NewMonitor(p Predictor) *Monitor { return &Monitor{P: p} }

// Branch implements trace.BranchSink.
func (m *Monitor) Branch(pc trace.PC, taken bool) {
	pred := m.P.Predict(uint64(pc))
	m.P.Update(uint64(pc), taken)
	m.Branches++
	if pred != taken {
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
		if !p.Predict(at) {
			m.Mispredict++
		}
		p.Update(at, true)
	}
	if p.Predict(at) {
		m.Mispredict++
	}
	p.Update(at, false)
	m.Branches += uint64(iters)
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
// studies, then the ablation extras.
var byName = []struct {
	name  string
	build func() (Predictor, error)
}{
	{"gshare-2KB", func() (Predictor, error) { return NewGshare(2 << 10) }},
	{"gshare-32KB", func() (Predictor, error) { return NewGshare(32 << 10) }},
	{"tage-8KB", func() (Predictor, error) { return NewTAGE(8 << 10) }},
	{"tage-64KB", func() (Predictor, error) { return NewTAGE(64 << 10) }},
	{"bimodal-8KB", func() (Predictor, error) { return NewBimodal(32 << 10) }}, // 32K 2-bit counters = 8KB
	{"perceptron-8KB", func() (Predictor, error) { return NewPerceptron(8 << 10) }},
	{"perceptron-64KB", func() (Predictor, error) { return NewPerceptron(64 << 10) }},
	{"tage-l-8KB", func() (Predictor, error) { return NewTAGEL(8 << 10) }},
	{"tage-l-64KB", func() (Predictor, error) { return NewTAGEL(64 << 10) }},
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

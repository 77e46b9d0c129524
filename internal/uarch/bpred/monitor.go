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

// NewByName constructs one of the predictors the paper studies (plus
// the ablation extras) by its report name.
func NewByName(name string) (Predictor, error) {
	switch name {
	case "gshare-2KB":
		return NewGshare(2 << 10)
	case "gshare-32KB":
		return NewGshare(32 << 10)
	case "tage-8KB":
		return NewTAGE(8 << 10)
	case "tage-64KB":
		return NewTAGE(64 << 10)
	case "bimodal-8KB":
		return NewBimodal(32 << 10) // 32K 2-bit counters = 8KB
	case "perceptron-8KB":
		return NewPerceptron(8 << 10)
	case "perceptron-64KB":
		return NewPerceptron(64 << 10)
	case "tage-l-8KB":
		return NewTAGEL(8 << 10)
	case "tage-l-64KB":
		return NewTAGEL(64 << 10)
	default:
		return nil, fmt.Errorf("bpred: unknown predictor %q", name)
	}
}

// PaperSet returns the four predictors of Figs. 8–10 in presentation
// order.
func PaperSet() []string {
	return []string{"gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB"}
}

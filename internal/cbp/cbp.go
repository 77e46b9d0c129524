// Package cbp reimplements the Championship Branch Prediction (CBP-2016)
// evaluation flow the paper uses in §4.4: branch traces recorded from
// encoder runs are replayed through candidate predictors, and each
// predictor is scored by miss rate and by MPKI relative to the full
// instruction window the trace was cut from.
package cbp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
)

// Trace is one branch trace plus the size of the instruction window it
// was recorded from (needed for MPKI).
type Trace struct {
	Name         string
	Branches     []trace.MicroOp
	Instructions uint64
}

// FromRecorder extracts a CBP trace from a recorder's window.
func FromRecorder(name string, rec *trace.Recorder) (Trace, error) {
	if rec == nil {
		return Trace{}, fmt.Errorf("cbp: nil recorder")
	}
	return FromWindow(name, rec.Ops)
}

// FromWindow extracts a CBP trace from a window. The branches are
// listed once, sized exactly, because every predictor walks them:
// stepping all the window's records nine times over measured slower.
// The size is the tape's own branch count for each chunk wholly inside
// the window, kept as the records were written, plus a walk of the
// window's share of its edge chunks (Window.Branches).
func FromWindow(name string, win trace.Window) (Trace, error) {
	br := win.Branches()
	if len(br) == 0 {
		return Trace{}, fmt.Errorf("cbp: window %q contains no branches", name)
	}
	return Trace{Name: name, Branches: br, Instructions: uint64(win.Len())}, nil
}

// validate checks that a trace can be scored.
func (tr Trace) validate() error {
	if len(tr.Branches) == 0 {
		return fmt.Errorf("cbp: trace %q is empty", tr.Name)
	}
	if tr.Instructions == 0 {
		return fmt.Errorf("cbp: trace %q has no instruction window size", tr.Name)
	}
	for i := range tr.Branches {
		if b := &tr.Branches[i]; !b.IsBranch() {
			return fmt.Errorf("cbp: trace %q contains non-branch op class %v", tr.Name, b.Class)
		}
	}
	return nil
}

// Score is one predictor's result on one trace.
type Score struct {
	Predictor   string
	Trace       string
	Branches    uint64
	Mispredicts uint64
	MissRate    float64 // mispredicts per branch
	MPKI        float64 // mispredicts per kilo-instruction
}

// replay scores a validated trace on a predictor in its reset state.
func replay(p bpred.Predictor, tr Trace) Score {
	var miss uint64
	for i := range tr.Branches {
		b := &tr.Branches[i]
		if p.Step(uint64(b.PC), b.Taken) != b.Taken {
			miss++
		}
	}
	return score(p.Name(), tr, miss)
}

// replayBoth scores a validated trace on a reset hybrid and, in the
// same pass, on the TAGE under it, named under.
func replayBoth(l *bpred.TAGEL, under string, tr Trace) (tage, hybrid Score) {
	var missT, missL uint64
	for i := range tr.Branches {
		b := &tr.Branches[i]
		tagePred, pred := l.StepBoth(uint64(b.PC), b.Taken)
		if tagePred != b.Taken {
			missT++
		}
		if pred != b.Taken {
			missL++
		}
	}
	return score(under, tr, missT), score(l.Name(), tr, missL)
}

func score(predictor string, tr Trace, miss uint64) Score {
	n := uint64(len(tr.Branches))
	return Score{
		Predictor:   predictor,
		Trace:       tr.Name,
		Branches:    n,
		Mispredicts: miss,
		MissRate:    float64(miss) / float64(n),
		MPKI:        float64(miss) / (float64(tr.Instructions) / 1000),
	}
}

// Championship evaluates every named predictor on every trace, scores
// ordered by name as given, then by trace. Each trace is validated
// once, not once per predictor, and a predictor is reset only between
// traces: it is borrowed in its reset state (bpred.Acquire) and given
// back when its traces are scored. Where the names hold both a
// TAGE-L hybrid and the TAGE it overlays, that TAGE is never built: the
// hybrid's own is stepped once for both (replayBoth), since a second
// would repeat it outcome for outcome.
func Championship(predictorNames []string, traces []Trace) ([]Score, error) {
	for _, tr := range traces {
		if err := tr.validate(); err != nil {
			return nil, err
		}
	}
	// plain[i] is the slot of the TAGE the hybrid named at i overlays;
	// that slot is marked taken and skipped.
	const none, taken = -1, -2
	plain := make([]int, len(predictorNames))
	for i := range plain {
		plain[i] = none
	}
	for i, name := range predictorNames {
		if under := bpred.TAGEUnder(name); under != "" {
			if j := slices.Index(predictorNames, under); j >= 0 && plain[j] == none {
				plain[i], plain[j] = j, taken
			}
		}
	}
	out := make([]Score, len(predictorNames)*len(traces))
	for i, name := range predictorNames {
		if plain[i] == taken {
			continue
		}
		p, err := bpred.Acquire(name)
		if err != nil {
			return nil, err
		}
		for k, tr := range traces {
			if k > 0 {
				p.Reset()
			}
			if j := plain[i]; j >= 0 {
				out[j*len(traces)+k], out[i*len(traces)+k] = replayBoth(p.(*bpred.TAGEL), predictorNames[j], tr)
			} else {
				out[i*len(traces)+k] = replay(p, tr)
			}
		}
		bpred.Release(p)
	}
	return out, nil
}

// Table renders championship scores as an aligned text table grouped by
// trace, the way Figs. 8–10 group bars per video.
func Table(scores []Score, metric string) (string, error) {
	if len(scores) == 0 {
		return "", fmt.Errorf("cbp: no scores")
	}
	var traces, preds []string
	seenT := map[string]bool{}
	seenP := map[string]bool{}
	val := map[[2]string]float64{}
	for _, s := range scores {
		if !seenT[s.Trace] {
			seenT[s.Trace] = true
			traces = append(traces, s.Trace)
		}
		if !seenP[s.Predictor] {
			seenP[s.Predictor] = true
			preds = append(preds, s.Predictor)
		}
		switch metric {
		case "mpki":
			val[[2]string{s.Trace, s.Predictor}] = s.MPKI
		case "missrate":
			val[[2]string{s.Trace, s.Predictor}] = s.MissRate * 100
		default:
			return "", fmt.Errorf("cbp: unknown metric %q", metric)
		}
	}
	sort.Strings(traces)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "trace")
	for _, p := range preds {
		fmt.Fprintf(&b, " %14s", p)
	}
	b.WriteString("\n")
	for _, tr := range traces {
		fmt.Fprintf(&b, "%-14s", tr)
		for _, p := range preds {
			fmt.Fprintf(&b, " %14.3f", val[[2]string{tr, p}])
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

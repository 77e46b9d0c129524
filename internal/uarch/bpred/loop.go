package bpred

import (
	"fmt"
)

// LoopPredictor implements the loop component of Seznec's TAGE-SC-L
// (the paper's reference [33]): a small table learns fixed trip counts
// of loop-closing branches and predicts the final not-taken iteration
// exactly — the one miss per loop execution every history predictor
// pays. Encoder kernels (SAD rows, transform passes, coefficient scans)
// are dominated by such branches.
type LoopPredictor struct {
	entries []loopEntry // sets × loopWays
	sets    int
}

// loopWays is the table associativity: contested sets keep a real loop
// and a conflicting branch in separate ways (TAGE-SC-L uses a 4-way
// skewed table for the same reason).
const loopWays = 2

type loopEntry struct {
	tag       uint16
	tripCount uint16 // learned taken-run length
	current   uint16 // taken count in the current execution
	conf      uint8  // confidence the trip count is stable
	age       uint8  // replacement protection, refreshed on confirms
	valid     bool
}

// loopConfThreshold is the confidence needed before predictions are
// used.
const loopConfThreshold = 3

// NewLoopPredictor builds a loop predictor with the given entry count
// (power of two).
func NewLoopPredictor(entries int) (*LoopPredictor, error) {
	if entries <= 0 || entries&(entries-1) != 0 || entries%loopWays != 0 {
		return nil, fmt.Errorf("bpred: loop entries %d not a power of two divisible by %d", entries, loopWays)
	}
	return &LoopPredictor{entries: make([]loopEntry, entries), sets: entries / loopWays}, nil
}

// set returns the ways of pc's set and its tag.
func (l *LoopPredictor) set(pc uint64) ([]loopEntry, uint16) {
	idx := int(((pc >> 2) ^ (pc >> 8)) & uint64(l.sets-1)) // sets is a power of two
	tag := uint16((pc >> 2) >> 6)
	return l.entries[idx*loopWays : (idx+1)*loopWays], tag
}

// find returns the resident entry for pc, or nil.
func (l *LoopPredictor) find(pc uint64) *loopEntry {
	ways, tag := l.set(pc)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// Predict returns the predicted direction and whether the predictor is
// confident enough for the prediction to be used.
func (l *LoopPredictor) Predict(pc uint64) (taken, confident bool) {
	e := l.find(pc)
	if e == nil || e.conf < loopConfThreshold {
		return false, false
	}
	// Trip counts below 2 are not loops (mostly-not-taken branches whose
	// short runs repeat by chance); leave those to the main predictor.
	if e.tripCount < 2 {
		return false, false
	}
	// Predict taken until the learned trip count is reached.
	return e.current < e.tripCount, true
}

// Update trains the predictor with the resolved direction.
func (l *LoopPredictor) Update(pc uint64, taken bool) {
	e := l.find(pc)
	if e == nil {
		// Allocate on a not-taken branch (a loop exit) so counting starts
		// aligned with executions: take an invalid or fully aged way, or
		// knock one age point off every resident way and wait.
		if !taken {
			ways, tag := l.set(pc)
			for i := range ways {
				if !ways[i].valid || ways[i].age == 0 {
					ways[i] = loopEntry{tag: tag, valid: true, age: 31}
					return
				}
			}
			for i := range ways {
				if ways[i].age > 0 {
					ways[i].age--
				}
			}
		}
		return
	}
	if taken {
		if e.current < 1<<15 {
			e.current++
		}
		return
	}
	// Loop exit: compare the observed run with the learned trip count.
	if e.current == e.tripCount {
		if e.conf < 7 {
			e.conf++
		}
		if e.tripCount >= 2 {
			e.age = 255 // a confirming real loop earns strong residency
		}
	} else {
		// A changed trip count restarts training without refreshing
		// residency: entries that never confirm decay under contention
		// and yield their slot to stabler loops.
		e.tripCount = e.current
		e.conf = 0
	}
	e.current = 0
}

// Reset clears all state.
func (l *LoopPredictor) Reset() {
	for i := range l.entries {
		l.entries[i] = loopEntry{}
	}
}

// TAGEL couples a TAGE predictor with a loop predictor: when the loop
// component is confident *and* the adaptive WITHLOOP counter says it
// has been paying off, it overrides TAGE — the arbitration TAGE-SC-L
// uses.
type TAGEL struct {
	tage *TAGE
	loop *LoopPredictor
	name string
	// withLoop adapts whether confident loop predictions are trusted.
	withLoop int8
}

// NewTAGEL builds the hybrid at the given TAGE byte budget; the loop
// table adds 64 entries (~0.5KB).
func NewTAGEL(sizeBytes int) (*TAGEL, error) {
	t, err := NewTAGE(sizeBytes)
	if err != nil {
		return nil, err
	}
	lp, err := NewLoopPredictor(64)
	if err != nil {
		return nil, err
	}
	return &TAGEL{tage: t, loop: lp, name: fmt.Sprintf("tage-l-%dKB", sizeBytes/1024)}, nil
}

// Name implements Predictor.
func (t *TAGEL) Name() string { return t.name }

// Step implements Predictor.
func (t *TAGEL) Step(pc uint64, taken bool) bool {
	_, pred := t.StepBoth(pc, taken)
	return pred
}

// StepBoth is Step that also returns what the TAGE under the overlay
// predicted. The loop component only overrides that prediction and
// never reads or writes TAGE's state, so tagePred is, branch for
// branch, what the plain TAGE of this budget (TAGEUnder) returns: one
// simulation scores both.
func (t *TAGEL) StepBoth(pc uint64, taken bool) (tagePred, pred bool) {
	tagePred = t.tage.Step(pc, taken)
	pred = tagePred
	if loopPred, conf := t.loop.Predict(pc); conf {
		if t.withLoop >= 0 {
			pred = loopPred
		}
		// Train the arbitration whenever the components disagree.
		if loopPred != tagePred {
			if loopPred == taken && t.withLoop < 63 {
				t.withLoop++
			} else if loopPred != taken && t.withLoop > -64 {
				t.withLoop--
			}
		}
	}
	t.loop.Update(pc, taken)
	return tagePred, pred
}

// Reset implements Predictor.
func (t *TAGEL) Reset() {
	t.tage.Reset()
	t.loop.Reset()
	t.withLoop = 0
}

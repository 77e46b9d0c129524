package bpred

import (
	"fmt"
)

// BTB is a set-associative branch target buffer: it predicts the target
// of taken branches. Direction predictors answer "taken?"; the BTB
// answers "where to?". The pipeline model charges a frontend bubble for
// taken branches that miss in the BTB.
type BTB struct {
	sets  int
	assoc int
	lines []btbEntry
	clock uint64

	Lookups uint64
	Hits    uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint64
	valid  bool
}

// NewBTB builds a BTB with the given entry count (power of two) and
// associativity.
func NewBTB(entries, assoc int) (*BTB, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB entries %d not a power of two", entries)
	}
	if assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("bpred: BTB assoc %d does not divide %d entries", assoc, entries)
	}
	return &BTB{sets: entries / assoc, assoc: assoc, lines: make([]btbEntry, entries)}, nil
}

// Reset clears all entries and counters.
func (b *BTB) Reset() {
	for i := range b.lines {
		b.lines[i] = btbEntry{}
	}
	b.clock, b.Lookups, b.Hits = 0, 0, 0
}

// Lookup predicts the target for a branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.clock++
	b.Lookups++
	set := int((pc >> 2) % uint64(b.sets))
	base := set * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.lines[i].valid && b.lines[i].tag == pc {
			b.lines[i].lru = b.clock
			b.Hits++
			return b.lines[i].target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target of a taken branch.
func (b *BTB) Update(pc, target uint64) {
	b.clock++
	set := int((pc >> 2) % uint64(b.sets))
	base := set * b.assoc
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+b.assoc; i++ {
		e := &b.lines[i]
		if e.valid && e.tag == pc {
			e.target = target
			e.lru = b.clock
			return
		}
		if !e.valid {
			victim = i
			oldest = 0
		} else if e.lru < oldest {
			victim = i
			oldest = e.lru
		}
	}
	b.lines[victim] = btbEntry{tag: pc, target: target, lru: b.clock, valid: true}
}

// HitRate returns hits per lookup.
func (b *BTB) HitRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Lookups)
}

// RAS is a return-address stack predicting return targets. Calls push,
// returns pop; overflow wraps (the oldest entries are clobbered), like
// hardware stacks.
type RAS struct {
	stack []uint64
	top   int
	depth int

	Pops       uint64
	Mispredict uint64
}

// NewRAS builds a return-address stack of the given depth.
func NewRAS(depth int) (*RAS, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("bpred: invalid RAS depth %d", depth)
	}
	return &RAS{stack: make([]uint64, depth)}, nil
}

// Push records a call's return address.
func (r *RAS) Push(ret uint64) {
	r.stack[r.top%len(r.stack)] = ret
	r.top++
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target and scores it against the actual target.
func (r *RAS) Pop(actual uint64) (predicted uint64, correct bool) {
	r.Pops++
	if r.depth == 0 {
		r.Mispredict++
		return 0, false
	}
	r.top--
	r.depth--
	predicted = r.stack[r.top%len(r.stack)]
	correct = predicted == actual
	if !correct {
		r.Mispredict++
	}
	return predicted, correct
}

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

// Reset clears all entries.
func (b *BTB) Reset() {
	for i := range b.lines {
		b.lines[i] = btbEntry{}
	}
	b.clock = 0
}

// Lookup predicts the target for a branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.clock++
	set := int((pc >> 2) % uint64(b.sets))
	base := set * b.assoc
	for i := base; i < base+b.assoc; i++ {
		if b.lines[i].valid && b.lines[i].tag == pc {
			b.lines[i].lru = b.clock
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

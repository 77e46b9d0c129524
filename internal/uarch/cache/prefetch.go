package cache

import "vcprof/internal/uarch/machine"

// Prefetcher issues predicted fills into a cache level. The encoder's
// dominant access pattern is unit-stride row scans, so even the simple
// next-line scheme recovers most of the streaming misses — the ablation
// bench quantifies how much.
type Prefetcher interface {
	// OnAccess observes a demand access and returns addresses to
	// prefetch (may be empty).
	OnAccess(addr uint64, miss bool) []uint64
}

// NextLinePrefetcher prefetches line N+1 on every demand miss.
type NextLinePrefetcher struct{}

// OnAccess implements Prefetcher.
func (NextLinePrefetcher) OnAccess(addr uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	return []uint64{(addr &^ (LineSize - 1)) + LineSize}
}

// StridePrefetcher tracks the last few observed strides per 4KB region
// and prefetches ahead when a stable stride repeats — a small tabular
// stride prefetcher like the L2 prefetchers of the paper's machine.
type StridePrefetcher struct {
	entries [64]strideEntry
	// Degree is how many strides ahead to prefetch (default 2).
	Degree int
}

type strideEntry struct {
	tag    uint64
	last   uint64
	stride int64
	conf   int8
	valid  bool
}

// OnAccess implements Prefetcher.
func (s *StridePrefetcher) OnAccess(addr uint64, miss bool) []uint64 {
	region := addr >> 12
	idx := region % uint64(len(s.entries))
	e := &s.entries[idx]
	degree := s.Degree
	if degree <= 0 {
		degree = 2
	}
	var out []uint64
	if e.valid && e.tag == region {
		stride := int64(addr) - int64(e.last)
		if stride == e.stride && stride != 0 {
			if e.conf < 3 {
				e.conf++
			}
			if e.conf >= 2 {
				next := int64(addr)
				for i := 0; i < degree; i++ {
					next += stride
					if next > 0 {
						out = append(out, uint64(next))
					}
				}
			}
		} else {
			e.stride = stride
			e.conf = 0
		}
		e.last = addr
		return out
	}
	*e = strideEntry{tag: region, last: addr, valid: true}
	return nil
}

// PrefetchHierarchy wraps a Hierarchy with a prefetcher feeding the L2:
// demand accesses train the prefetcher, and predicted lines are filled
// into L2 (and LLC) without counting as demand accesses.
type PrefetchHierarchy struct {
	*Hierarchy
	PF     Prefetcher
	Issued uint64
	Useful uint64 // prefetched lines that were L2-resident on demand
}

// NewPrefetchHierarchy puts a prefetcher on an acquired paper
// hierarchy; the caller releases it (Release is promoted).
func NewPrefetchHierarchy(pf Prefetcher) (*PrefetchHierarchy, error) {
	h, err := Acquire(machine.Xeon())
	if err != nil {
		return nil, err
	}
	return &PrefetchHierarchy{Hierarchy: h, PF: pf}, nil
}

// Access mirrors Hierarchy.Access but trains and applies the prefetcher.
func (p *PrefetchHierarchy) Access(addr uint64, store bool) int {
	if hit, _ := p.L1.Access(addr, store); hit {
		return p.L1.Config().LatencyCyc
	}
	l2hit, _ := p.L2.Access(addr, false)
	lat := p.memLat
	if l2hit {
		lat = p.L2.Config().LatencyCyc
		p.Useful++ // resident either by prior demand or prefetch
	} else if hit, _ := p.LLC.Access(addr, false); hit {
		lat = p.LLC.Config().LatencyCyc
	}
	for _, pa := range p.PF.OnAccess(addr, !l2hit) {
		// Fill into L2 + LLC without disturbing demand statistics: use a
		// probe-then-fill so already-resident lines are untouched.
		if !p.L2.Probe(pa) {
			p.fillQuiet(pa)
			p.Issued++
		}
	}
	return lat
}

// fillQuiet inserts a line into L2 and LLC and then removes the fill
// from the stats, so prefetches are invisible to demand MPKI.
func (p *PrefetchHierarchy) fillQuiet(addr uint64) {
	s2 := p.L2.stats
	sl := p.LLC.stats
	p.L2.Access(addr, false)
	p.LLC.Access(addr, false)
	p.L2.stats = s2
	p.LLC.stats = sl
}

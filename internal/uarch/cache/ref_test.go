package cache

// The cache level and hierarchy walk this package shipped before the
// last-line fast path, moved here verbatim (identifiers prefixed,
// nothing else changed) as the oracle of the differential tests: every
// access scans its whole set and the set index is always a modulo.

import "vcprof/internal/uarch/machine"

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set timestamp; larger is more recent.
	lru uint64
}

// refCache is one set-associative level.
type refCache struct {
	cfg   Config
	sets  int
	shift uint
	lines []refLine // sets × assoc
	clock uint64
	stats Stats
}

// newRefCache builds a cache level from its configuration.
func newRefCache(cfg Config) (*refCache, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (LineSize * cfg.Assoc)
	c := &refCache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]refLine, sets*cfg.Assoc),
	}
	for s := 64; s > 1; s >>= 1 {
		c.shift++
	}
	return c, nil
}

// Stats returns a copy of the level's counters.
func (c *refCache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *refCache) Reset() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
	c.clock = 0
	c.stats = Stats{}
}

// Access looks up the line containing addr. On a miss the line is
// filled (allocate-on-write too) and the victim's writeback is
// reported. Returns whether the access hit and whether a dirty victim
// was evicted.
func (c *refCache) Access(addr uint64, store bool) (hit, writeback bool) {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.shift
	set := int(tag % uint64(c.sets))
	base := set * c.cfg.Assoc
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+c.cfg.Assoc; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if store {
				ln.dirty = true
			}
			return true, false
		}
		if !ln.valid {
			victim = i
			oldest = 0
		} else if ln.lru < oldest {
			victim = i
			oldest = ln.lru
		}
	}
	c.stats.Misses++
	v := &c.lines[victim]
	writeback = v.valid && v.dirty
	if writeback {
		c.stats.Writebacks++
	}
	*v = refLine{tag: tag, valid: true, dirty: store, lru: c.clock}
	return false, writeback
}

// Probe reports whether addr is resident without updating any state.
func (c *refCache) Probe(addr uint64) bool {
	tag := addr >> c.shift
	set := int(tag % uint64(c.sets))
	base := set * c.cfg.Assoc
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

// refHierarchy chains three reference levels the way Hierarchy does.
type refHierarchy struct {
	L1, L2, LLC *refCache
	memLat      int
}

func newRefHierarchy(m machine.Machine) (*refHierarchy, error) {
	c1, err := newRefCache(m.L1D)
	if err != nil {
		return nil, err
	}
	c2, err := newRefCache(m.L2)
	if err != nil {
		return nil, err
	}
	c3, err := newRefCache(m.LLC)
	if err != nil {
		return nil, err
	}
	return &refHierarchy{L1: c1, L2: c2, LLC: c3, memLat: m.MemLatency}, nil
}

// Access sends one access down the hierarchy and returns its latency in
// cycles.
func (h *refHierarchy) Access(addr uint64, store bool) int {
	if hit, _ := h.L1.Access(addr, store); hit {
		return h.L1.cfg.LatencyCyc
	}
	if hit, wb := h.L2.Access(addr, false); hit {
		_ = wb
		return h.L2.cfg.LatencyCyc
	}
	if hit, _ := h.LLC.Access(addr, false); hit {
		return h.LLC.cfg.LatencyCyc
	}
	return h.memLat
}

// SpanAccess issues line-granular accesses covering [addr, addr+size)
// and returns the worst latency, modeling one memory instruction that
// may straddle a line boundary.
func (h *refHierarchy) SpanAccess(addr uint64, size int, store bool) int {
	if size <= 0 {
		size = 1
	}
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(size) - 1) &^ (LineSize - 1)
	worst := 0
	for a := first; ; a += LineSize {
		if lat := h.Access(a, store); lat > worst {
			worst = lat
		}
		if a == last {
			break
		}
	}
	return worst
}

// Package cache implements a set-associative write-back cache model and
// the four-level hierarchy of the paper's measurement machine (Intel
// Xeon E5-2650 v4: 32KB L1I, 32KB L1D, 256KB L2, 30MB shared LLC). It is
// driven either live from the instrumentation layer (the perf-counter
// substitute) or from recorded traces during pipeline replay.
package cache

import (
	"fmt"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	LatencyCyc int // hit latency in cycles
}

// Validate checks the configuration for structural soundness.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: invalid config %+v", c)
	}
	sets := c.SizeBytes / (LineSize * c.Assoc)
	if sets <= 0 {
		return fmt.Errorf("cache: %s size %d too small for assoc %d", c.Name, c.SizeBytes, c.Assoc)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set timestamp; larger is more recent.
	lru uint64
}

// Cache is one set-associative level.
type Cache struct {
	cfg     Config
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0: use %
	shift   uint
	lines   []line // sets × assoc
	last    int    // index of the line the previous access touched
	clock   uint64
	stats   Stats
}

// New builds a cache level from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (LineSize * cfg.Assoc)
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]line, sets*cfg.Assoc),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	for s := 64; s > 1; s >>= 1 {
		c.shift++
	}
	return c, nil
}

// base returns the index of the first way of tag's set. The LLC's
// 24576 sets are not a power of two, so the modulo stays for it.
func (c *Cache) base(tag uint64) int {
	if c.setMask != 0 {
		return int(tag&c.setMask) * c.cfg.Assoc
	}
	return int(tag%uint64(c.sets)) * c.cfg.Assoc
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.last = 0
	c.clock = 0
	c.stats = Stats{}
}

// Access looks up the line containing addr. On a miss the line is
// filled (allocate-on-write too) and the victim's writeback is
// reported. Returns whether the access hit and whether a dirty victim
// was evicted.
func (c *Cache) Access(addr uint64, store bool) (hit, writeback bool) {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.shift
	// Same line as the previous access: tags are whole line addresses,
	// so a match is the hit the scan below would find, with nothing
	// else in the set touched.
	if ln := &c.lines[c.last]; ln.valid && ln.tag == tag {
		ln.lru = c.clock
		if store {
			ln.dirty = true
		}
		return true, false
	}
	base := c.base(tag)
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+c.cfg.Assoc; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if store {
				ln.dirty = true
			}
			c.last = i
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
	*v = line{tag: tag, valid: true, dirty: store, lru: c.clock}
	c.last = victim
	return false, writeback
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.shift
	base := c.base(tag)
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

// XeonE52650v4 returns the per-core data hierarchy of the paper's
// machine: L1D 32KB/8-way, L2 256KB/8-way, LLC 30MB/20-way (shared; the
// single-core model gives one core the whole LLC, which matches the
// paper's single-threaded characterization runs).
func XeonE52650v4() (l1, l2, llc Config) {
	l1 = Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4}
	l2 = Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LatencyCyc: 12}
	llc = Config{Name: "LLC", SizeBytes: 30 << 20, Assoc: 20, LatencyCyc: 38}
	return
}

// L1IConfig returns the instruction cache of the same machine.
func L1IConfig() Config {
	return Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4}
}

// MemLatency is the DRAM access latency in cycles.
const MemLatency = 220

// Hierarchy chains L1D→L2→LLC with inclusive fills and write-back
// propagation, exposing per-level statistics and per-access latency.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
}

// NewHierarchy builds the three-level data hierarchy.
func NewHierarchy(l1, l2, llc Config) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	c3, err := New(llc)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: c1, L2: c2, LLC: c3}, nil
}

// NewXeonHierarchy builds the paper machine's data hierarchy.
func NewXeonHierarchy() (*Hierarchy, error) {
	l1, l2, llc := XeonE52650v4()
	return NewHierarchy(l1, l2, llc)
}

// Access sends one access down the hierarchy and returns its latency in
// cycles.
func (h *Hierarchy) Access(addr uint64, store bool) int {
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
	return MemLatency
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
}

// MPKI returns misses per kilo-instruction for each level given the
// retired instruction count.
func (h *Hierarchy) MPKI(instructions uint64) (l1, l2, llc float64) {
	if instructions == 0 {
		return 0, 0, 0
	}
	k := float64(instructions) / 1000
	return float64(h.L1.stats.Misses) / k,
		float64(h.L2.stats.Misses) / k,
		float64(h.LLC.stats.Misses) / k
}

// SpanAccess issues line-granular accesses covering [addr, addr+size)
// and returns the worst latency, modeling one memory instruction that
// may straddle a line boundary.
func (h *Hierarchy) SpanAccess(addr uint64, size int, store bool) int {
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

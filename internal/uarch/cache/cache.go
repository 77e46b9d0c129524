// Package cache implements a set-associative write-back cache model and
// the data hierarchy of a machine.Machine. It is driven either live from
// the instrumentation layer (the perf-counter substitute) or from
// recorded traces during pipeline replay.
package cache

import (
	"fmt"
	"math/bits"

	"vcprof/internal/memo"
	"vcprof/internal/uarch/machine"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes one cache level.
type Config = machine.Cache

// validate checks the configuration for structural soundness.
func validate(c Config) error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: invalid config %+v", c)
	}
	if c.SizeBytes/(LineSize*c.Assoc) <= 0 {
		return fmt.Errorf("cache: size %d too small for assoc %d", c.SizeBytes, c.Assoc)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// line is one way of a set, 16 bytes. It is valid while its stamp is
// newer than the cache's floor, so a reset invalidates every line by
// moving the floor instead of clearing the array.
type line struct {
	key uint64 // line address << 1 | dirty
	lru uint64 // clock value of the last touch; larger is more recent
}

// hintSlots caps a level's way hints at the L1's line count: the L1 has
// a slot a line, the larger levels, which see only its misses, share
// them. A fixed array keeps the hints in the Cache's own allocation.
const hintSlots = 512

// Cache is one set-associative level.
type Cache struct {
	cfg       Config
	sets      int
	setMask   uint64 // sets-1 when sets is a power of two, else 0: use %
	shift     uint
	hintShift uint   // 64 − log2 of the hint slots in use
	lines     []line // sets × assoc
	last      int    // index of the line the previous access touched
	clock     uint64 // never rewinds, so stamps order across resets
	floor     uint64 // clock at the last Reset; stamps ≤ floor are invalid
	stats     Stats
	hint      [hintSlots]uint8 // by tag hash: the way its line was last found in, a guess
}

// New builds a cache level from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := validate(cfg); err != nil {
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
	for s := LineSize; s > 1; s >>= 1 {
		c.shift++
	}
	c.hintShift = 64 - uint(bits.Len(uint(min(len(c.lines), hintSlots)-1)))
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

// Reset clears contents and counters in O(1): every stamp written so
// far is at or below the new floor. Hints stay; Access verifies them.
func (c *Cache) Reset() {
	c.floor = c.clock
	c.last = 0
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
	// Same line as the previous access, then the way the hint names:
	// tags are whole line addresses and a valid line holding one is
	// unique and lies in its set, so a verified match is the hit the
	// scan below would find, with nothing else in the set touched. A
	// stale or colliding hint only costs the scan.
	if ln := &c.lines[c.last]; ln.lru > c.floor && ln.key>>1 == tag {
		ln.touch(c.clock, store)
		return true, false
	}
	base := c.base(tag)
	h := tag * 0x9E3779B97F4A7C15 >> c.hintShift & (hintSlots - 1) // multiplicative hash
	if i := base + int(c.hint[h]); i < len(c.lines) {
		if ln := &c.lines[i]; ln.lru > c.floor && ln.key>>1 == tag {
			ln.touch(c.clock, store)
			c.last = i
			return true, false
		}
	}
	victim := base
	// Invalid ways win, the last one scanned; among valid ways the
	// oldest stamp. Valid stamps all exceed the floor, so they compare
	// as they would counted from zero.
	oldest := ^uint64(0)
	for i := base; i < base+c.cfg.Assoc; i++ {
		ln := &c.lines[i]
		if ln.lru <= c.floor {
			victim = i
			oldest = 0
		} else if ln.key>>1 == tag {
			ln.touch(c.clock, store)
			c.last = i
			c.hint[h] = uint8(i - base)
			return true, false
		} else if ln.lru < oldest {
			victim = i
			oldest = ln.lru
		}
	}
	c.stats.Misses++
	v := &c.lines[victim]
	writeback = v.lru > c.floor && v.key&1 != 0
	if writeback {
		c.stats.Writebacks++
	}
	*v = line{key: tag << 1, lru: c.clock}
	if store {
		v.key |= 1
	}
	c.last = victim
	c.hint[h] = uint8(victim - base)
	return false, writeback
}

func (ln *line) touch(clock uint64, store bool) {
	ln.lru = clock
	if store {
		ln.key |= 1
	}
}

// Repeat accounts n further accesses to the line the previous access
// touched: what n trips through Access's same-line path leave behind.
func (c *Cache) Repeat(n uint64, store bool) {
	c.clock += n
	c.stats.Accesses += n
	c.lines[c.last].touch(c.clock, store)
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.shift
	base := c.base(tag)
	for i := base; i < base+c.cfg.Assoc; i++ {
		if ln := c.lines[i]; ln.lru > c.floor && ln.key>>1 == tag {
			return true
		}
	}
	return false
}

// Hierarchy chains L1D→L2→LLC with inclusive fills and write-back
// propagation, exposing per-level statistics and per-access latency.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache

	memLat   int  // DRAM access latency in cycles
	acquired bool // handed out by Acquire and not yet released
}

// NewHierarchy builds m's three-level data hierarchy.
func NewHierarchy(m machine.Machine) (*Hierarchy, error) {
	c1, err := New(m.L1D)
	if err != nil {
		return nil, err
	}
	c2, err := New(m.L2)
	if err != nil {
		return nil, err
	}
	c3, err := New(m.LLC)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: c1, L2: c2, LLC: c3, memLat: m.MemLatency}, nil
}

// NewXeonHierarchy builds the paper machine's data hierarchy.
func NewXeonHierarchy() (*Hierarchy, error) { return NewHierarchy(machine.Xeon()) }

// shape is what a hierarchy is built from.
type shape struct {
	l1, l2, llc Config
	memLat      int
}

// xeonFree holds idle paper-machine hierarchies between measurements:
// a cell touches a few thousand of the 7.9 MB LLC's lines and Reset is
// O(1), so a used hierarchy is as good as a new one.
var xeonFree memo.Free[shape, *Hierarchy]

// Acquire returns a cold data hierarchy of m for one measurement. The
// caller owns it until Release. The paper machine's is reused when an
// idle one exists; any other machine's is built here and dropped there.
func Acquire(m machine.Machine) (*Hierarchy, error) {
	h, ok := xeonFree.Take(shape{m.L1D, m.L2, m.LLC, m.MemLatency})
	if !ok {
		var err error
		if h, err = NewHierarchy(m); err != nil {
			return nil, err
		}
	}
	h.Reset()
	h.acquired = true
	return h, nil
}

// Release hands a hierarchy from Acquire back; the caller must not use
// it afterwards. At most GOMAXPROCS idle hierarchies are kept, one for
// every goroutine that can be running; the rest are left to the
// collector. Releasing twice, or a hierarchy never acquired, panics.
func (h *Hierarchy) Release() {
	if !h.acquired {
		panic("cache: Release of a hierarchy that is not acquired")
	}
	h.acquired = false
	x := machine.Xeon()
	if s := (shape{h.L1.cfg, h.L2.cfg, h.LLC.cfg, h.memLat}); s == (shape{x.L1D, x.L2, x.LLC, x.MemLatency}) {
		xeonFree.Give(s, h)
	}
}

// Access sends one access down the hierarchy and returns its latency in
// cycles.
func (h *Hierarchy) Access(addr uint64, store bool) int {
	if hit, _ := h.L1.Access(addr, store); hit {
		return h.L1.cfg.LatencyCyc
	}
	return h.below(addr)
}

// below is the walk of an L1 miss: L2, then the LLC, then memory.
func (h *Hierarchy) below(addr uint64) int {
	if hit, _ := h.L2.Access(addr, false); hit {
		return h.L2.cfg.LatencyCyc
	}
	if hit, _ := h.LLC.Access(addr, false); hit {
		return h.LLC.cfg.LatencyCyc
	}
	return h.memLat
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
// may straddle a line boundary. One inside a line is Access, inlined.
func (h *Hierarchy) SpanAccess(addr uint64, size int, store bool) int {
	if size <= 0 {
		size = 1
	}
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(size) - 1) &^ (LineSize - 1)
	if first == last {
		if hit, _ := h.L1.Access(addr, store); hit {
			return h.L1.cfg.LatencyCyc
		}
		return h.below(addr)
	}
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

// Sink is a hierarchy seen from the trace layer (a trace.RunSink):
// Access is one memory instruction over every line it spans, Run is
// the hierarchy's own.
type Sink struct{ *Hierarchy }

// Access issues one access of size bytes at addr.
func (s Sink) Access(addr uint64, size int, store bool) { s.SpanAccess(addr, size, store) }

// Run issues count accesses of size bytes, the i-th at addr + i·stride,
// and leaves every level exactly as count SpanAccess calls would. The
// first access to reach a line walks the hierarchy (one L1 lookup when
// it lies inside a line); the accesses after it that stay wholly inside
// that line are hits on the line L1 touched last, and are accounted
// there in one step.
func (h *Hierarchy) Run(addr uint64, count, stride, size int, store bool) {
	if size <= 0 {
		size = 1
	}
	span := uint64(size - 1)
	step := uint64(stride) // |stride|: a line or more leaves no followers
	if stride < 0 {
		step = -step
	}
	shift := -1 // log2(step) when step is a power of two: no division
	if step&(step-1) == 0 {
		shift = bits.TrailingZeros64(step)
	}
	for count > 0 {
		if addr%LineSize+span < LineSize {
			if hit, _ := h.L1.Access(addr, store); !hit {
				h.below(addr)
			}
		} else {
			h.SpanAccess(addr, size, store)
		}
		line := (addr + span) &^ (LineSize - 1)
		addr += uint64(stride)
		count--
		off := addr - line // wraps high when addr is below the line
		if count == 0 || step >= LineSize || off >= LineSize || off+span >= LineSize {
			continue
		}
		n := count
		if step != 0 {
			room := LineSize - 1 - span - off // bytes the run may still advance
			if stride < 0 {
				room = off
			}
			if shift >= 0 {
				room >>= uint(shift)
			} else {
				room /= step
			}
			if room+1 < uint64(n) {
				n = int(room + 1)
			}
		}
		h.L1.Repeat(uint64(n), store)
		addr += uint64(n * stride)
		count -= n
	}
}

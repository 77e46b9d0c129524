package cache

import (
	"testing"
	"testing/quick"

	"vcprof/internal/uarch/machine"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 1 << 10, Assoc: 2, LatencyCyc: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 0, Assoc: 1}); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := New(Config{SizeBytes: 1 << 10, Assoc: 0}); err == nil {
		t.Error("accepted zero assoc")
	}
	if c, err := New(Config{SizeBytes: 30 << 20, Assoc: 20, LatencyCyc: 1}); err != nil || c == nil {
		t.Errorf("rejected non-power-of-two set count (real LLC geometry): %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access missed")
	}
	if hit, _ := c.Access(0x1004, false); !hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses / 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1KB, 2-way, 64B lines → 8 sets. Three lines mapping to set 0:
	// addresses 0, 8*64, 16*64.
	c := small(t)
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a evicted, want resident")
	}
	if c.Probe(b) {
		t.Error("b resident, want evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d not resident after fill")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small(t)
	c.Access(0, true) // dirty fill
	c.Access(8*64, false)
	_, wb := c.Access(16*64, false) // evicts line 0 (dirty)
	if !wb {
		t.Error("dirty eviction did not report writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := small(t)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	if st := c.Stats(); st.Accesses != 8 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 4 misses in 8 accesses", st)
	}
	c.Reset()
	if c.Stats().Accesses != 0 || c.Probe(0) {
		t.Error("Reset did not clear state")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := small(t) // 1KB = 16 lines
	// Touch 8 distinct lines repeatedly: after warmup, zero misses.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 8; i++ {
			c.Access(uint64(i)*64, false)
		}
	}
	if m := c.Stats().Misses; m != 8 {
		t.Errorf("misses = %d, want 8 cold misses only", m)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	lat := h.Access(0x100000, false)
	if lat != machine.Xeon().MemLatency {
		t.Errorf("cold access latency = %d, want DRAM %d", lat, machine.Xeon().MemLatency)
	}
	lat = h.Access(0x100000, false)
	if lat != h.L1.Config().LatencyCyc {
		t.Errorf("hot access latency = %d, want L1 %d", lat, h.L1.Config().LatencyCyc)
	}
	// Evict from L1 only: stream 64KB of lines, then re-access — should
	// hit L2 (256KB) at L2 latency.
	for i := 0; i < 1024; i++ {
		h.Access(0x200000+uint64(i)*64, false)
	}
	lat = h.Access(0x100000, false)
	if lat != h.L2.Config().LatencyCyc {
		t.Errorf("L1-evicted access latency = %d, want L2 %d", lat, h.L2.Config().LatencyCyc)
	}
}

func TestHierarchyMPKI(t *testing.T) {
	h, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		h.Access(uint64(i)*64, false) // all L1 misses (streaming)
	}
	l1, l2, llc := h.MPKI(1_000_000)
	if l1 != 1.0 {
		t.Errorf("L1 MPKI = %v, want 1.0 (1000 misses / 1M insts)", l1)
	}
	if l2 != 1.0 || llc != 1.0 {
		t.Errorf("L2/LLC MPKI = %v/%v, want 1.0 (inclusive misses)", l2, llc)
	}
	if a, b, c := h.MPKI(0); a != 0 || b != 0 || c != 0 {
		t.Error("MPKI with zero instructions should be 0")
	}
}

func TestSpanAccessCrossesLines(t *testing.T) {
	h, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// A 16-byte access at offset 56 spans two lines.
	h.SpanAccess(56, 16, false)
	if !h.L1.Probe(0) || !h.L1.Probe(64) {
		t.Error("span access did not touch both lines")
	}
	// Degenerate size.
	h.SpanAccess(200, 0, false)
	if !h.L1.Probe(192) {
		t.Error("zero-size span did not touch its line")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		c.Probe(uint64(i) * 64)
	}
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestAccessDeterministic(t *testing.T) {
	f := func(addrs []uint32) bool {
		c1, _ := New(Config{SizeBytes: 4 << 10, Assoc: 4, LatencyCyc: 1})
		c2, _ := New(Config{SizeBytes: 4 << 10, Assoc: 4, LatencyCyc: 1})
		for _, a := range addrs {
			h1, _ := c1.Access(uint64(a), a%3 == 0)
			h2, _ := c2.Access(uint64(a), a%3 == 0)
			if h1 != h2 {
				return false
			}
		}
		return c1.Stats() == c2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

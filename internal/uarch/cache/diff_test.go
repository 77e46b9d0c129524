package cache

import (
	"math/bits"
	"testing"

	"vcprof/internal/uarch/machine"
)

type access struct {
	addr  uint64
	size  int
	store bool
}

// diffStreams returns the named access streams of the differential
// tests. span is the address range the random streams cover, chosen by
// the caller relative to the cache under test.
func diffStreams(n int, span uint64) map[string][]access {
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	gen := func(f func(i int) access) []access {
		out := make([]access, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	var runAddr uint64
	return map[string][]access{
		"random": gen(func(int) access {
			r := next()
			return access{addr: r % span, size: 1 + int(r>>40%16), store: r>>60&1 == 1}
		}),
		// A hot set of lines with a random tail: mostly hits, so LRU
		// order and dirty bits matter.
		"hotcold": gen(func(int) access {
			r := next()
			if r>>50%8 != 0 {
				return access{addr: r % 96 * LineSize, size: 8, store: r>>61&1 == 1}
			}
			return access{addr: r % span, size: 8, store: r>>61&1 == 1}
		}),
		"strided": gen(func(i int) access {
			return access{addr: uint64(i) * 4160 % span, size: 32, store: i%7 == 0}
		}),
		// Runs of accesses inside one line, the last-line shortcut's
		// case, with loads and stores mixed and line-straddling sizes.
		"sameline": gen(func(i int) access {
			r := next()
			if i%11 == 0 {
				runAddr = r % span &^ (LineSize - 1)
			}
			return access{addr: runAddr + r>>20%LineSize, size: 1 + int(r>>30%48), store: r>>62&1 == 1}
		}),
	}
}

// logical decodes a line of c into the reference's representation:
// valid, tag, dirty, and the stamp counted from the last Reset. An
// invalid line is the zero refLine whatever stale bits it holds.
func (c *Cache) logical(i int) refLine {
	ln := c.lines[i]
	if ln.lru <= c.floor {
		return refLine{}
	}
	return refLine{tag: ln.key >> 1, valid: true, dirty: ln.key&1 != 0, lru: ln.lru - c.floor}
}

// sameLines fails the test unless every line of fast decodes to the
// reference's line.
func sameLines(t *testing.T, what string, fast *Cache, ref *refCache) {
	t.Helper()
	for i := range fast.lines {
		if got := fast.logical(i); got != ref.lines[i] {
			t.Fatalf("%s: line %d ends as %+v, reference %+v", what, i, got, ref.lines[i])
		}
	}
}

// TestCacheMatchesReference is the differential wall for one level:
// the same hit and writeback on every access, the same counters and
// the same final lines (valid, tag, dirty bit, LRU stamp since the
// reset) as the full-scan reference, on power-of-two and on the LLC's
// set counts, with Probe agreeing along the way and a Reset in the
// middle — O(1) here, a full clear in the reference. Way hints are only
// guesses: a 512-way set whose way numbers wrap the hint's byte, every
// tag squeezed onto four slots, and a hint table of seeded garbage at
// the start and after the Reset must all change nothing.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range []struct {
		Name string
		Config
		slots int // hint slots in use, when not what New chose
	}{
		{"tiny", Config{SizeBytes: 1 << 10, Assoc: 2}, 0},
		{"full", Config{SizeBytes: 512, Assoc: 8}, 0},                 // one set
		{"full512", Config{SizeBytes: 512 * LineSize, Assoc: 512}, 0}, // one set, ways past a byte
		{"odd", Config{SizeBytes: 3 * 5 * 64, Assoc: 3}, 0},           // five sets
		{"l1", Config{SizeBytes: 32 << 10, Assoc: 8}, 0},
		{"l1/4slots", Config{SizeBytes: 32 << 10, Assoc: 8}, 4},
		{"llc/16", Config{SizeBytes: 30 << 16, Assoc: 20}, 0}, // 1536 sets
	} {
		for _, garbage := range []bool{false, true} {
			for name, stream := range diffStreams(60_000, uint64(cfg.SizeBytes)*6) {
				what := cfg.Name + "/" + name
				if garbage {
					what += "/garbage"
				}
				fast, err := New(cfg.Config)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.slots != 0 {
					fast.hintShift = 64 - uint(bits.TrailingZeros(uint(cfg.slots)))
				}
				ref, err := newRefCache(cfg.Config)
				if err != nil {
					t.Fatal(err)
				}
				s := uint64(len(what))*0x9E3779B97F4A7C15 | 1
				scramble := func() {
					for i := range fast.hint {
						if !garbage {
							return
						}
						s ^= s << 13
						s ^= s >> 7
						s ^= s << 17
						fast.hint[i] = uint8(s)
					}
				}
				scramble()
				for i, a := range stream {
					if i == len(stream)/2 {
						fast.Reset()
						ref.Reset()
						scramble()
					}
					if i%5 == 0 {
						if p, rp := fast.Probe(a.addr), ref.Probe(a.addr); p != rp {
							t.Fatalf("%s access %d: Probe %v, reference %v", what, i, p, rp)
						}
					}
					hit, wb := fast.Access(a.addr, a.store)
					rhit, rwb := ref.Access(a.addr, a.store)
					if hit != rhit || wb != rwb {
						t.Fatalf("%s access %d (%#x store=%v): hit/writeback %v/%v, reference %v/%v",
							what, i, a.addr, a.store, hit, wb, rhit, rwb)
					}
				}
				if fast.Stats() != ref.Stats() {
					t.Fatalf("%s: stats %+v, reference %+v", what, fast.Stats(), ref.Stats())
				}
				sameLines(t, what, fast, ref)
			}
		}
	}
}

// TestHierarchyMatchesReference drives the paper machine's hierarchy,
// non-power-of-two LLC included, through SpanAccess: the same latency
// on every access, the same per-level counters and final lines.
func TestHierarchyMatchesReference(t *testing.T) {
	xeon := machine.Xeon()
	// 40 MB of addresses: past the LLC, so every level evicts.
	for name, stream := range diffStreams(400_000, 40<<20) {
		fast, err := NewHierarchy(xeon)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefHierarchy(xeon)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range stream {
			if lat, rlat := fast.SpanAccess(a.addr, a.size, a.store), ref.SpanAccess(a.addr, a.size, a.store); lat != rlat {
				t.Fatalf("%s access %d: latency %d, reference %d", name, i, lat, rlat)
			}
		}
		sameHierarchy(t, name, fast, ref)
	}
}

// TestLRUInclusion checks the stack property of LRU: at equal set
// count, a cache with more ways holds a superset of the lines, so it
// never misses where the smaller one hits.
func TestLRUInclusion(t *testing.T) {
	const sets = 16
	for name, stream := range diffStreams(60_000, sets*LineSize*40) {
		var caches []*Cache
		for _, ways := range []int{1, 2, 4, 8, 16} {
			c, err := New(Config{SizeBytes: sets * ways * LineSize, Assoc: ways})
			if err != nil {
				t.Fatal(err)
			}
			caches = append(caches, c)
		}
		for i, a := range stream {
			smallerHit := false
			for _, c := range caches {
				hit, _ := c.Access(a.addr, a.store)
				if smallerHit && !hit {
					t.Fatalf("%s access %d: the %d-way cache missed a line a smaller one held", name, i, c.cfg.Assoc)
				}
				smallerHit = hit
			}
		}
		for i := 1; i < len(caches); i++ {
			if caches[i].Stats().Misses > caches[i-1].Stats().Misses {
				t.Fatalf("%s: %d ways missed %d times, %d ways only %d", name,
					caches[i].cfg.Assoc, caches[i].Stats().Misses, caches[i-1].cfg.Assoc, caches[i-1].Stats().Misses)
			}
		}
	}
}

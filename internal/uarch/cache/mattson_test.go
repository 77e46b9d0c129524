package cache

import "testing"

// An independent oracle for the cache, not a slow twin of it: Mattson's
// one-pass LRU stack distances. Nothing here is shared with cache.go or
// ref_test.go — no set, no way, no victim, no clock. A fully-associative
// LRU cache of n lines misses exactly the accesses whose line was never
// seen or saw n or more distinct other lines since its last touch.

// stackDistances returns, for every access of the line sequence, how
// many distinct other lines were touched since that line's previous
// access, or -1 for its first. A Fenwick tree over access times marks
// each line's latest access; the marks between a line's previous access
// and now are the distinct lines touched in between.
func stackDistances(lines []uint64) []int {
	marks := make([]int, len(lines)+1)
	mark := func(t, d int) {
		for t++; t < len(marks); t += t & -t {
			marks[t] += d
		}
	}
	before := func(t int) int { // marks at times < t
		n := 0
		for ; t > 0; t -= t & -t {
			n += marks[t]
		}
		return n
	}
	latest := make(map[uint64]int)
	dist := make([]int, len(lines))
	for t, ln := range lines {
		dist[t] = -1
		if p, ok := latest[ln]; ok {
			dist[t] = before(t) - before(p+1)
			mark(p, -1)
		}
		mark(t, 1)
		latest[ln] = t
	}
	return dist
}

// TestCacheMatchesMattson: fully-associative caches of 1, 8, 64 and 512
// lines count exactly the misses the stack distances predict, on every
// differential stream, on both sides of a Reset; and the miss count
// never grows with the size (stack inclusion).
func TestCacheMatchesMattson(t *testing.T) {
	const lineBytes = 64
	sizes := []int{1, 8, 64, 512}
	for name, stream := range diffStreams(60_000, 1536*lineBytes) {
		halves := [][]access{stream[:len(stream)/2], stream[len(stream)/2:]}
		caches := make([]*Cache, len(sizes))
		for i, n := range sizes {
			c, err := New(Config{SizeBytes: n * lineBytes, Assoc: n})
			if err != nil {
				t.Fatal(err)
			}
			caches[i] = c
		}
		for half, accs := range halves {
			lines := make([]uint64, len(accs))
			for i, a := range accs {
				lines[i] = a.addr / lineBytes
			}
			dist := stackDistances(lines)
			for i, c := range caches {
				if half > 0 {
					c.Reset()
				}
				for _, a := range accs {
					c.Access(a.addr, a.store)
				}
				var want uint64
				for _, d := range dist {
					if d < 0 || d >= sizes[i] {
						want++
					}
				}
				if got := c.Stats().Misses; got != want {
					t.Fatalf("%s half %d, %d lines: %d misses, stack distances say %d", name, half, sizes[i], got, want)
				}
				if i > 0 && c.Stats().Misses > caches[i-1].Stats().Misses {
					t.Fatalf("%s half %d: %d lines missed %d times, %d lines only %d", name, half,
						sizes[i], c.Stats().Misses, sizes[i-1], caches[i-1].Stats().Misses)
				}
			}
		}
	}
}

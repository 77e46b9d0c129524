package obs_test

import (
	"sync"
	"testing"

	"vcprof/internal/obs"
)

// TestHistogramBucketPlacement pins the bucket edge semantics: bounds
// are inclusive upper edges, values above the last bound land in +Inf.
func TestHistogramBucketPlacement(t *testing.T) {
	h := obs.NewHistogram("test.hist.placement", []uint64{10, 20, 40})
	defer obs.Reset()
	for _, v := range []uint64{0, 10, 11, 20, 39, 40, 41, 1000} {
		h.Observe(v)
	}
	v := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // (..10], (10..20], (20..40], +Inf
	for i, c := range v.Counts {
		if c != want[i] {
			t.Errorf("bucket %d: count %d, want %d", i, c, want[i])
		}
	}
	if v.Count != 8 || h.Count() != 8 {
		t.Errorf("count %d/%d, want 8", v.Count, h.Count())
	}
	if wantSum := uint64(0 + 10 + 11 + 20 + 39 + 40 + 41 + 1000); v.Sum != wantSum {
		t.Errorf("sum %d, want %d", v.Sum, wantSum)
	}
}

// TestHistogramNilSafe pins the disabled-histogram contract: every
// method on a nil receiver is a no-op (FindHistogram returns nil for
// unknown names, and call sites never re-check).
func TestHistogramNilSafe(t *testing.T) {
	var h *obs.Histogram
	h.Observe(7)
	if h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("nil histogram reported observations")
	}
	if got := obs.FindHistogram("test.hist.never-registered"); got != nil {
		t.Fatalf("FindHistogram of unknown name = %v, want nil", got)
	}
}

// TestHistogramRegistry pins registration semantics: same name, same
// instance; volatile histograms are excluded from the deterministic
// listing; the listing is sorted by name.
func TestHistogramRegistry(t *testing.T) {
	defer obs.Reset()
	a := obs.NewHistogram("test.hist.reg.det", []uint64{1, 2})
	if same := obs.NewHistogram("test.hist.reg.det", []uint64{9, 10}); same != a {
		t.Fatal("re-registration returned a different instance")
	}
	vol := obs.NewVolatileHistogram("test.hist.reg.vol", []uint64{1, 2})
	a.Observe(1)
	vol.Observe(1)
	if obs.FindHistogram("test.hist.reg.det") != a {
		t.Fatal("FindHistogram missed a registered histogram")
	}
	names := func(vs []obs.HistogramValue) map[string]bool {
		m := make(map[string]bool, len(vs))
		for _, v := range vs {
			m[v.Name] = true
		}
		return m
	}
	det := obs.Histograms(false)
	if m := names(det); m["test.hist.reg.vol"] || !m["test.hist.reg.det"] {
		t.Errorf("deterministic listing wrong: %v", m)
	}
	all := obs.Histograms(true)
	if m := names(all); !m["test.hist.reg.vol"] {
		t.Error("volatile histogram missing from full listing")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("listing not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
}

// TestHistogramPanicsOnBadBounds pins the registration guard that
// checks every bucket layout: registered from package var initializers,
// a bad one panics at init in any test binary that links it.
func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for name, bounds := range map[string][]uint64{
		"test.hist.empty":      {},
		"test.hist.flat":       {5, 5},
		"test.hist.descending": {5, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: no panic", bounds)
				}
			}()
			obs.NewHistogram(name, bounds)
		}()
	}
}

// TestHistogramReset zeroes contents but keeps the registration.
func TestHistogramReset(t *testing.T) {
	h := obs.NewHistogram("test.hist.reset", []uint64{1, 2})
	h.Observe(1)
	obs.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("reset left observations behind")
	}
	if obs.FindHistogram("test.hist.reset") != h {
		t.Fatal("reset dropped the registration")
	}
}

// TestHistogramQuantile pins the interpolation estimate: monotone in
// q, covered by the bucket edges, saturating at the largest finite
// bound for the +Inf bucket, and 0 on empty.
func TestHistogramQuantile(t *testing.T) {
	if (obs.HistogramValue{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h := obs.NewHistogram("test.hist.quantile", []uint64{10, 100, 1000})
	defer obs.Reset()
	rng := splitmixState(42)
	for i := 0; i < 5000; i++ {
		h.Observe(rng.next() % 2000)
	}
	v := h.Snapshot()
	var prev uint64
	for q := 0.01; q <= 1.0; q += 0.01 {
		cur := v.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %d after %d", q, cur, prev)
		}
		prev = cur
	}
	if p50, p99 := v.Quantile(0.50), v.Quantile(0.99); p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
	if got := v.Quantile(1.0); got > 1000 {
		t.Fatalf("quantile saturates above the largest finite bound: %d", got)
	}
}

// TestHistogramConcurrentHammer drives concurrent Observe against
// concurrent Snapshot under -race: the final tallies must equal the
// offered load exactly (atomic adds lose nothing), and every mid-flight
// snapshot must be internally sane (count = sum of buckets).
func TestHistogramConcurrentHammer(t *testing.T) {
	h := obs.NewVolatileHistogram("test.hist.hammer", []uint64{8, 64, 512})
	defer obs.Reset()
	const (
		writers = 8
		perG    = 5000
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots must never tear structurally
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := h.Snapshot()
			var n uint64
			for _, c := range v.Counts {
				n += c
			}
			if n != v.Count {
				t.Errorf("snapshot count %d != bucket sum %d", v.Count, n)
				return
			}
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(seed uint64) {
			defer writersWG.Done()
			rng := splitmixState(seed)
			for i := 0; i < perG; i++ {
				h.Observe(rng.next() % 1024)
			}
		}(uint64(g + 1))
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if got := h.Count(); got != writers*perG {
		t.Fatalf("count %d, want %d", got, writers*perG)
	}
}

// splitmix is the repo's deterministic test PRNG (splitmix64) — no
// math/rand, per the detflow randomness rule.
type splitmixState uint64

func (s *splitmixState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram is a process-wide fixed-bucket distribution. Bounds are
// inclusive upper edges in strictly increasing order; one implicit
// +Inf bucket catches the overflow. Observe is a pair of atomic adds,
// so concurrent cell workers may feed the same histogram; bucket
// totals are commutative and therefore worker-count independent for
// any fixed set of observed values.
//
// The deterministic/volatile split mirrors Counter: deterministic
// histograms (NewHistogram) record modeled quantities — per-stage
// encode ticks, virtual latencies — and appear in byte-compared
// exposition. Volatile histograms (NewVolatileHistogram) record host
// time — job latency, queue wait, cache lookup time — and render only
// for humans and live dashboards.
type Histogram struct {
	name     string
	volatile bool
	bounds   []uint64
	counts   []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum      atomic.Uint64
}

// Observe records one value. Safe on a nil receiver (disabled).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Bucket count is small (≤ ~20); binary search keeps the hot path
	// allocation-free and branch-cheap.
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum reads the running total of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot copies the histogram's current state. Bucket reads are
// individually atomic but not mutually consistent under concurrent
// Observe — fine for live views; deterministic exports snapshot
// quiesced registries.
func (h *Histogram) Snapshot() HistogramValue {
	v := HistogramValue{
		Name:     h.name,
		Volatile: h.volatile,
		Bounds:   h.bounds,
		Counts:   make([]uint64, len(h.counts)),
		Sum:      h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		v.Counts[i] = c
		v.Count += c
	}
	return v
}

var histRegistry = struct {
	sync.Mutex
	m map[string]*Histogram
}{m: make(map[string]*Histogram)}

// NewHistogram registers (or returns the existing) deterministic
// histogram. bounds must be strictly increasing and non-empty — a
// programmer error, panicked on here. Call from package var
// initializers: registration then never depends on execution order,
// and a bad layout panics at init, failing every test of every
// package that links it before it can ship.
func NewHistogram(name string, bounds []uint64) *Histogram {
	return newHistogram(name, bounds, false)
}

// NewVolatileHistogram registers a histogram excluded from
// deterministic exports.
func NewVolatileHistogram(name string, bounds []uint64) *Histogram {
	return newHistogram(name, bounds, true)
}

func newHistogram(name string, bounds []uint64, volatile bool) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + ": empty bucket bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s: bounds not strictly increasing at index %d", name, i))
		}
	}
	histRegistry.Lock()
	defer histRegistry.Unlock()
	if h, ok := histRegistry.m[name]; ok {
		return h
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, volatile: volatile, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	histRegistry.m[name] = h
	return h
}

// FindHistogram returns the registered histogram with the given name,
// or nil (the disabled histogram) if none exists.
func FindHistogram(name string) *Histogram {
	histRegistry.Lock()
	defer histRegistry.Unlock()
	return histRegistry.m[name]
}

// UnregisterHistogram removes a histogram from the registry so it no
// longer appears in snapshots or expositions. Test support only:
// production histograms live for the process; tests that register
// ad-hoc names use this to avoid leaking them into golden captures
// that share the test binary.
func UnregisterHistogram(name string) {
	histRegistry.Lock()
	defer histRegistry.Unlock()
	delete(histRegistry.m, name)
}

// ResetHistograms zeroes every registered histogram (the registry
// itself persists), mirroring ResetCounters.
func ResetHistograms() {
	histRegistry.Lock()
	defer histRegistry.Unlock()
	for _, h := range histRegistry.m {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
	}
}

// HistogramValue is a histogram snapshot row. Counts are per-bucket
// (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramValue struct {
	Name     string
	Volatile bool
	Bounds   []uint64
	Counts   []uint64
	Sum      uint64
	Count    uint64
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the covering bucket, the same estimate
// Prometheus' histogram_quantile computes. Values in the +Inf bucket
// saturate at the largest finite bound. Returns 0 on an empty
// histogram. The estimate is monotone in q, so p99 >= p50 always
// holds.
func (v HistogramValue) Quantile(q float64) uint64 {
	if v.Count == 0 || len(v.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(v.Count)
	var cum float64
	for i, c := range v.Counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(v.Bounds) {
			return v.Bounds[len(v.Bounds)-1]
		}
		lo := uint64(0)
		if i > 0 {
			lo = v.Bounds[i-1]
		}
		hi := v.Bounds[i]
		frac := (target - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + uint64(frac*float64(hi-lo))
	}
	return v.Bounds[len(v.Bounds)-1]
}

// Histograms snapshots every registered histogram sorted by name. With
// includeVolatile false only the deterministic domain is returned —
// the form safe for byte-compared output.
func Histograms(includeVolatile bool) []HistogramValue {
	histRegistry.Lock()
	hs := make([]*Histogram, 0, len(histRegistry.m))
	for _, h := range histRegistry.m {
		if h.volatile && !includeVolatile {
			continue
		}
		hs = append(hs, h)
	}
	histRegistry.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	out := make([]HistogramValue, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.Snapshot())
	}
	return out
}

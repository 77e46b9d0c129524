package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a process-wide monotonic event counter. Add and Max are
// atomic, so concurrent cell workers may bump the same counter; totals
// are commutative and therefore worker-count independent for any fixed
// set of computed work.
//
// Deterministic counters (NewCounter) appear in the Chrome trace export
// and golden files. Volatile counters (NewVolatileCounter) measure
// scheduling-dependent facts — peak worker occupancy, pool sizes — and
// are excluded from every byte-compared export; they render only in the
// human -stats section.
type Counter struct {
	name     string
	volatile bool
	v        atomic.Uint64
}

// Add increments the counter. Safe on a nil receiver (disabled).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Max raises the counter to at least n (for peak-style volatile
// counters).
func (c *Counter) Max(n uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

var registry = struct {
	sync.Mutex
	m map[string]*Counter
}{m: make(map[string]*Counter)}

// NewCounter registers (or returns the existing) deterministic counter
// with the given dotted name. Call from package var initializers so
// registration order never depends on execution order.
func NewCounter(name string) *Counter { return newCounter(name, false) }

// NewVolatileCounter registers a counter excluded from deterministic
// exports.
func NewVolatileCounter(name string) *Counter { return newCounter(name, true) }

func newCounter(name string, volatile bool) *Counter {
	registry.Lock()
	defer registry.Unlock()
	if c, ok := registry.m[name]; ok {
		return c
	}
	c := &Counter{name: name, volatile: volatile}
	registry.m[name] = c
	return c
}

// Reset zeroes every registered counter and histogram (the registries
// themselves persist). Tests call it between runs that must start from
// identical state.
func Reset() {
	registry.Lock()
	for _, c := range registry.m {
		c.v.Store(0)
	}
	registry.Unlock()
	histRegistry.Lock()
	defer histRegistry.Unlock()
	for _, h := range histRegistry.m {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
	}
}

// CounterValue is a counter snapshot row.
type CounterValue struct {
	Name     string
	Value    uint64
	Volatile bool
}

// Counters snapshots every registered counter sorted by name. With
// includeVolatile false only the deterministic domain is returned —
// the form safe for byte-compared output.
func Counters(includeVolatile bool) []CounterValue {
	registry.Lock()
	out := make([]CounterValue, 0, len(registry.m))
	for _, c := range registry.m {
		if c.volatile && !includeVolatile {
			continue
		}
		out = append(out, CounterValue{Name: c.name, Value: c.v.Load(), Volatile: c.volatile})
	}
	registry.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RenderCounters returns an aligned text dump of the counter registry,
// deterministic counters first, then (if requested) a volatile section.
func RenderCounters(includeVolatile bool) string {
	rows := Counters(includeVolatile)
	w := 0
	for _, r := range rows {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	var b strings.Builder
	b.WriteString("== obs: counters ==\n")
	for _, r := range rows {
		if r.Volatile {
			continue
		}
		fmt.Fprintf(&b, "%-*s  %d\n", w, r.Name, r.Value)
	}
	if includeVolatile {
		b.WriteString("-- volatile (scheduling-dependent, never golden-compared) --\n")
		for _, r := range rows {
			if !r.Volatile {
				continue
			}
			fmt.Fprintf(&b, "%-*s  %d\n", w, r.Name, r.Value)
		}
	}
	return b.String()
}

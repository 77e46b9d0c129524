// Package obs is vcprof's self-observation layer: a hierarchical span
// tracer and a process-wide counter registry, both byte-deterministic.
//
// The paper's method is instrumentation all the way down — Pin-like
// traces, perf-like counters, gprof-like profiles — and this package
// applies the same discipline to vcprof itself: where does a sweep's
// time go (motion search? the range coder? the cache simulator? memo
// misses in harness.RunAll)?
//
// Determinism contract (DESIGN.md §7): span timestamps are virtual.
// A Trace owns a monotonic tick counter advanced only by Advance with
// modeled quantities (instructions, simulated cycles, recorded ops) —
// never by the host clock — so the Chrome trace export and the
// self-profile table are byte-identical across runs, hosts and worker
// counts, and can be golden-tested exactly like the harness tables.
//
// Counters split into two domains: deterministic counters (cache
// hits/misses, simulated uarch events) appear in exports and goldens;
// volatile counters (worker occupancy, anything scheduling-dependent)
// are declared with NewVolatileCounter and surface only in the human
// -stats section, never in byte-compared output.
//
// Disabled-path cost: every method is a cheap no-op on a nil *Trace or
// nil *Session — one predictable branch, zero allocations — so
// instrumented code paths need no conditionals of their own. The
// overhead guard in overhead_test.go enforces 0 allocs/op and keeps the
// no-op span under a few nanoseconds.
package obs

import "sync"

// NameID is an interned span name. Interning keeps Begin calls
// allocation-free and makes name comparisons integer comparisons.
type NameID int32

var names = struct {
	sync.Mutex
	byName map[string]NameID
	list   []string
}{byName: make(map[string]NameID)}

// Name interns a span name. Typically called once from package var
// initializers; the returned ID is valid for the process lifetime.
func Name(s string) NameID {
	names.Lock()
	defer names.Unlock()
	if id, ok := names.byName[s]; ok {
		return id
	}
	id := NameID(len(names.list))
	names.list = append(names.list, s)
	names.byName[s] = id
	return id
}

// nameString resolves an interned ID ("?" for unknown IDs).
func nameString(id NameID) string {
	names.Lock()
	defer names.Unlock()
	if id < 0 || int(id) >= len(names.list) {
		return "?"
	}
	return names.list[id]
}

package memo

import (
	"context"
	"errors"
	"sync"
)

// Memo is a concurrency-safe compute-once cache: Do computes each key
// exactly once however many goroutines ask, and keeps the finished
// value while it fits the weight budget. Non-cancellation errors are
// values like any other and are cached with them.
type Memo[K comparable, V any] struct {
	weigh func(V) int64

	mu     sync.Mutex
	lru    *LRU[K, *call[V]]
	hits   uint64
	misses uint64
}

// call is one slot. done is closed once val and err are set; until then
// the slot sits in the table pinned at weight 0.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a memo bounded to cap total weight. weigh prices a
// finished value (at least 1 is charged, so no finished entry stays
// pinned); nil charges 1 per entry, bounding the entry count.
func New[K comparable, V any](cap int64, weigh func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{weigh: weigh, lru: NewLRU[K, *call[V]](cap, nil)}
}

// Do returns key's value, running fn under ctx on the first request.
// hit reports whether the entry already existed, joins on an in-flight
// computation included.
//
// A waiter gives up when its own ctx ends; the computation carries on
// for the others. Cancellation is never cached: a computation that ends
// in its requester's cancellation or deadline is dropped, and a waiter
// whose own ctx is still live computes afresh under it instead of
// inheriting someone else's cancellation.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, hit bool, err error) {
	for {
		m.mu.Lock()
		c, ok := m.lru.Get(key)
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			m.lru.Put(key, c, 0)
			m.misses++
			m.mu.Unlock()
			c.val, c.err = fn(ctx)
			// Account before waking the waiters, so one that retries a
			// dropped cancellation finds the slot already gone.
			m.finish(key, c)
			close(c.done)
			return c.val, false, c.err
		}
		m.hits++
		m.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return val, true, ctx.Err()
		}
		if isCancellation(c.err) && ctx.Err() == nil {
			continue // that requester's cancellation, not ours
		}
		return c.val, true, c.err
	}
}

// finish accounts a completed call — only if its slot is still the
// resident one: a Reset or a replacement while fn ran leaves nothing to
// charge.
func (m *Memo[K, V]) finish(key K, c *call[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.lru.Peek(key); !ok || cur != c {
		return
	}
	if isCancellation(c.err) {
		m.lru.Remove(key)
		return
	}
	w := int64(1)
	if m.weigh != nil {
		w = max(w, m.weigh(c.val))
	}
	m.lru.Reweigh(key, w)
}

// isCancellation reports whether err is a context cancellation or
// deadline error, possibly wrapped.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats is a snapshot of a memo's traffic and occupancy.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	Weight  int64
	Cap     int64
}

// Stats reports hit/miss counts and occupancy.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.misses, Entries: m.lru.Len(), Weight: m.lru.Weight(), Cap: m.lru.Cap()}
}

// Reset empties the memo and zeroes its counters. Computations in
// flight finish for their current waiters and are not kept.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru = NewLRU[K, *call[V]](m.lru.Cap(), nil)
	m.hits, m.misses = 0, 0
}

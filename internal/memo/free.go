package memo

import (
	"runtime"
	"sync"
)

// Free is a bounded free list of idle values by key: a measurement
// borrows its simulator tables here and gives them back, so a run
// allocates what it keeps, not what it measures with. At most
// GOMAXPROCS idle values are kept a key, one for every goroutine that
// can be running; which keys are worth keeping is the caller's call. It
// is not a sync.Pool, which the collector empties when it likes
// (DESIGN.md §4). The zero Free is empty and ready to use.
type Free[K comparable, V any] struct {
	mu   sync.Mutex
	idle map[K][]V
}

// Take returns an idle value of key's, if one is kept. The caller owns
// it, and brings it to the state a new one would have.
func (f *Free[K, V]) Take(key K) (v V, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.idle[key]
	if len(s) == 0 {
		return v, false
	}
	v, s[len(s)-1] = s[len(s)-1], v // v was zero: the slot keeps no reference
	f.idle[key] = s[:len(s)-1]
	return v, true
}

// Give hands v back under key; the caller must not use it afterwards.
func (f *Free[K, V]) Give(key K, v V) {
	//lint:ignore detflow the bound only decides how many idle values stay allocated; no counter or table can observe it
	bound := runtime.GOMAXPROCS(0)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.idle == nil {
		f.idle = map[K][]V{}
	}
	if s := f.idle[key]; len(s) < bound {
		f.idle[key] = append(s, v)
	}
}

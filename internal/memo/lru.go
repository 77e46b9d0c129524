// Package memo is the repository's one bounded table (DESIGN.md §4):
// LRU is the weight-bounded recency table, Memo the compute-once cache
// built on it, and Free the bounded free list simulator tables are
// borrowed from. It is a stdlib-only leaf with no package-level state
// and nothing settable beyond each table's capacity.
package memo

// LRU is a weight-bounded table in recency order. It is unsynchronised:
// the owner guards every call with the lock it already holds for the
// state around the table.
//
// Only Get moves an entry; Put inserts at the most-recently-used end and
// Peek, Reweigh and an overwriting Put leave the order alone, so a table
// read only through Peek retains by insertion order (FIFO).
//
// Whenever total weight exceeds the capacity, entries are evicted from
// the least-recently-used end until it fits, with two exceptions that
// hold for every table: an entry of weight 0 is pinned (its owner is
// still filling it in) and is skipped, and the last remaining entry is
// never evicted, so a value that alone exceeds the budget is still
// served until something newer displaces it.
type LRU[K comparable, V any] struct {
	m       map[K]*node[K, V]
	root    node[K, V] // sentinel: root.next is the MRU entry, root.prev the LRU
	weight  int64
	cap     int64
	onEvict func(K, V)
}

// node is one entry, linked intrusively: one allocation per insert.
type node[K comparable, V any] struct {
	key        K
	val        V
	weight     int64
	prev, next *node[K, V]
}

// NewLRU builds an empty table holding at most cap total weight.
// onEvict, when non-nil, is called for every entry eviction drops (not
// for Remove), with the owner's lock held: it must not call back into
// the table.
func NewLRU[K comparable, V any](cap int64, onEvict func(K, V)) *LRU[K, V] {
	l := &LRU[K, V]{m: make(map[K]*node[K, V]), cap: cap, onEvict: onEvict}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *LRU[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (l *LRU[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}

// Get returns k's value and marks it most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	n := l.m[k]
	if n != nil && l.root.next != n {
		l.unlink(n)
		l.pushFront(n)
	}
	return n.value()
}

// Peek returns k's value without touching the recency order.
func (l *LRU[K, V]) Peek(k K) (V, bool) { return l.m[k].value() }

func (n *node[K, V]) value() (v V, ok bool) {
	if n != nil {
		v, ok = n.val, true
	}
	return v, ok
}

// Put stores v under k with the given weight — a new key enters as the
// most recently used, a resident key is overwritten where it stands —
// and then evicts down to the capacity. Weight 0 pins the entry until
// Reweigh or an overwriting Put gives it one.
func (l *LRU[K, V]) Put(k K, v V, weight int64) {
	n, ok := l.m[k]
	if !ok {
		n = &node[K, V]{key: k}
		l.m[k] = n
		l.pushFront(n)
	}
	n.val = v
	l.reweigh(n, weight)
}

// Reweigh changes a resident entry's weight in place and evicts down to
// the capacity; it reports whether k was resident.
func (l *LRU[K, V]) Reweigh(k K, weight int64) bool {
	n, ok := l.m[k]
	if ok {
		l.reweigh(n, weight)
	}
	return ok
}

func (l *LRU[K, V]) reweigh(n *node[K, V], weight int64) {
	if weight < 0 {
		panic("memo: negative weight")
	}
	l.weight += weight - n.weight
	n.weight = weight
	l.evict()
}

// Remove drops k without calling the evict callback; it reports whether
// k was resident.
func (l *LRU[K, V]) Remove(k K) bool {
	n, ok := l.m[k]
	if ok {
		l.drop(n)
	}
	return ok
}

func (l *LRU[K, V]) drop(n *node[K, V]) {
	l.unlink(n)
	delete(l.m, n.key)
	l.weight -= n.weight
}

// evict is the one eviction loop: a single pass from the LRU end, since
// whatever it steps over is pinned and stays that way for the pass.
func (l *LRU[K, V]) evict() {
	for n := l.root.prev; n != &l.root && l.weight > l.cap && len(l.m) > 1; {
		prev := n.prev
		if n.weight > 0 {
			l.drop(n)
			if l.onEvict != nil {
				l.onEvict(n.key, n.val)
			}
		}
		n = prev
	}
}

// Keys lists the resident keys, most recently used first.
func (l *LRU[K, V]) Keys() []K {
	keys := make([]K, 0, len(l.m))
	for n := l.root.next; n != &l.root; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

// Len is the number of resident entries, pinned ones included.
func (l *LRU[K, V]) Len() int { return len(l.m) }

// Weight is the total weight of the resident entries.
func (l *LRU[K, V]) Weight() int64 { return l.weight }

// Cap is the weight budget.
func (l *LRU[K, V]) Cap() int64 { return l.cap }

// SetCap changes the weight budget and evicts down to it.
func (l *LRU[K, V]) SetCap(cap int64) {
	l.cap = cap
	l.evict()
}

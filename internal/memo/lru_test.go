package memo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelLRU is the slice-scan reference the property test drives LRU
// against: entries most recently used first, every operation a linear
// scan, eviction restarted from the back after each drop.
type modelLRU struct {
	ents    []modelEnt
	cap     int64
	evicted []int
}

type modelEnt struct {
	key, val int
	weight   int64
}

func (m *modelLRU) find(k int) int {
	return slices.IndexFunc(m.ents, func(e modelEnt) bool { return e.key == k })
}

func (m *modelLRU) weight() (w int64) {
	for _, e := range m.ents {
		w += e.weight
	}
	return w
}

func (m *modelLRU) get(k int) (int, bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	e := m.ents[i]
	m.ents = slices.Insert(slices.Delete(m.ents, i, i+1), 0, e)
	return e.val, true
}

func (m *modelLRU) put(k, v int, w int64) {
	if i := m.find(k); i >= 0 {
		m.ents[i].val, m.ents[i].weight = v, w
	} else {
		m.ents = slices.Insert(m.ents, 0, modelEnt{k, v, w})
	}
	m.evict()
}

func (m *modelLRU) reweigh(k int, w int64) bool {
	i := m.find(k)
	if i < 0 {
		return false
	}
	m.ents[i].weight = w
	m.evict()
	return true
}

func (m *modelLRU) remove(k int) bool {
	i := m.find(k)
	if i < 0 {
		return false
	}
	m.ents = slices.Delete(m.ents, i, i+1)
	return true
}

func (m *modelLRU) evict() {
	for m.weight() > m.cap && len(m.ents) > 1 {
		i := len(m.ents) - 1
		for i >= 0 && m.ents[i].weight == 0 {
			i--
		}
		if i < 0 {
			return // everything left is pinned
		}
		m.evicted = append(m.evicted, m.ents[i].key)
		m.ents = slices.Delete(m.ents, i, i+1)
	}
}

// TestLRUAgainstModel drives LRU and the reference with the same seeded
// random operations and compares the whole observable state after each.
func TestLRUAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var evicted []int
		pinned := map[int]bool{} // keys resident at weight 0
		lru := NewLRU(40, func(k, v int) {
			if pinned[k] {
				t.Fatalf("seed %d: pinned key %d evicted", seed, k)
			}
			evicted = append(evicted, k)
		})
		model := &modelLRU{cap: 40}
		for op := 0; op < 2000; op++ {
			k := rng.Intn(24)
			w := int64(rng.Intn(12)) // 0 pins, about one in twelve
			var desc string
			switch rng.Intn(8) {
			case 0, 1:
				desc = fmt.Sprintf("Get(%d)", k)
				gv, gok := lru.Get(k)
				wv, wok := model.get(k)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d op %d %s = %d,%v want %d,%v", seed, op, desc, gv, gok, wv, wok)
				}
			case 2:
				desc = fmt.Sprintf("Peek(%d)", k)
				gv, gok := lru.Peek(k)
				i := model.find(k)
				if gok != (i >= 0) || gok && gv != model.ents[i].val {
					t.Fatalf("seed %d op %d %s = %d,%v disagrees with model", seed, op, desc, gv, gok)
				}
			case 3, 4:
				desc = fmt.Sprintf("Put(%d,%d,%d)", k, op, w)
				pinned[k] = w == 0
				lru.Put(k, op, w)
				model.put(k, op, w)
			case 5:
				desc = fmt.Sprintf("Reweigh(%d,%d)", k, w)
				if model.find(k) >= 0 {
					pinned[k] = w == 0
				}
				if got, want := lru.Reweigh(k, w), model.reweigh(k, w); got != want {
					t.Fatalf("seed %d op %d %s = %v want %v", seed, op, desc, got, want)
				}
			case 6:
				desc = fmt.Sprintf("Remove(%d)", k)
				delete(pinned, k)
				if got, want := lru.Remove(k), model.remove(k); got != want {
					t.Fatalf("seed %d op %d %s = %v want %v", seed, op, desc, got, want)
				}
			case 7:
				c := int64(rng.Intn(80))
				desc = fmt.Sprintf("SetCap(%d)", c)
				lru.SetCap(c)
				model.cap = c
				model.evict()
			}
			for _, k := range model.evicted {
				delete(pinned, k)
			}

			keys := make([]int, len(model.ents))
			for i, e := range model.ents {
				keys[i] = e.key
			}
			if got := lru.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("seed %d op %d %s: Keys() = %v want %v", seed, op, desc, got, keys)
			}
			if lru.Len() != len(keys) || lru.Weight() != model.weight() || lru.Cap() != model.cap {
				t.Fatalf("seed %d op %d %s: len/weight/cap = %d/%d/%d want %d/%d/%d", seed, op, desc,
					lru.Len(), lru.Weight(), lru.Cap(), len(keys), model.weight(), model.cap)
			}
			if !slices.Equal(evicted, model.evicted) {
				t.Fatalf("seed %d op %d %s: evict callbacks %v want %v", seed, op, desc, evicted, model.evicted)
			}
			for _, e := range model.ents {
				if v, ok := lru.Peek(e.key); !ok || v != e.val {
					t.Fatalf("seed %d op %d %s: Peek(%d) = %d,%v want %d", seed, op, desc, e.key, v, ok, e.val)
				}
			}
		}
		if len(evicted) == 0 {
			t.Fatalf("seed %d: the run never evicted", seed)
		}
	}
}

// TestLRUKeepsLastEntry: a value that alone exceeds the budget is held
// until something newer displaces it.
func TestLRUKeepsLastEntry(t *testing.T) {
	lru := NewLRU[string, int](10, nil)
	lru.Put("big", 1, 100)
	if _, ok := lru.Peek("big"); !ok {
		t.Fatal("sole oversized entry was evicted")
	}
	lru.Put("next", 2, 1)
	if got := lru.Keys(); !slices.Equal(got, []string{"next"}) {
		t.Fatalf("Keys() = %v after a newer entry arrived, want [next]", got)
	}
}

// TestLRUPeekOnlyIsFIFO: a table never touched through Get retains by
// insertion order, however often old keys are read or overwritten.
func TestLRUPeekOnlyIsFIFO(t *testing.T) {
	lru := NewLRU[int, int](3, nil)
	for k := 0; k < 3; k++ {
		lru.Put(k, k, 1)
	}
	lru.Peek(0)
	lru.Put(0, 99, 1)
	lru.Put(3, 3, 1)
	if got := lru.Keys(); !slices.Equal(got, []int{3, 2, 1}) {
		t.Fatalf("Keys() = %v, want [3 2 1]: the oldest insert goes first", got)
	}
}

func TestLRUNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put with a negative weight did not panic")
		}
	}()
	NewLRU[int, int](1, nil).Put(1, 1, -1)
}

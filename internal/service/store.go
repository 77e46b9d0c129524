package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the content-addressed, disk-persistent result store. One
// object per job key under dir/objects/<k[:2]>/<k>.json, written to a
// temp file in the same directory and atomically renamed, so a crash
// can never leave a torn object — an object either exists complete or
// not at all. Total size is bounded: least-recently-used objects are
// evicted (deleted) once the budget is exceeded.
//
// The LRU order is persisted in dir/index.json by Flush (called on
// graceful shutdown); on open, objects missing from the index are
// appended in sorted-key order, so a store rebuilt from a crashed
// server still loads deterministically.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*storeEntry
	lru     *list.List // front = most recently used
	size    int64
}

type storeEntry struct {
	key  string
	size int64
	elem *list.Element
}

// storeIndex is the on-disk index document.
type storeIndex struct {
	Order []string `json:"order"` // most recently used first
}

// OpenStore opens (creating if needed) a store rooted at dir with the
// given size budget in bytes (<=0 means 1 GiB).
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*storeEntry),
		lru:      list.New(),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load scans the object tree and replays the persisted LRU order.
func (s *Store) load() error {
	sizes := make(map[string]int64)
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".json") {
			return nil // stray temp or foreign file
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		sizes[strings.TrimSuffix(name, ".json")] = info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	var idx storeIndex
	if data, err := os.ReadFile(filepath.Join(s.dir, "index.json")); err == nil {
		// A corrupt index is not fatal: fall back to sorted-key order.
		_ = json.Unmarshal(data, &idx)
	}
	seen := make(map[string]bool)
	var order []string
	for _, k := range idx.Order {
		if _, ok := sizes[k]; ok && !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	var rest []string
	for k := range sizes {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	order = append(order, rest...)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Walk back-to-front so PushFront leaves index order intact.
	for i := len(order) - 1; i >= 0; i-- {
		k := order[i]
		e := &storeEntry{key: k, size: sizes[k]}
		e.elem = s.lru.PushFront(e)
		s.entries[k] = e
		s.size += e.size
	}
	s.evictLocked()
	return nil
}

// objectPath returns the on-disk path for a key under a store root.
func objectPath(dir, key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(dir, "objects", prefix, key+".json")
}

// Get returns the stored result bytes for a key, marking it most
// recently used.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		obsStoreMisses.Add(1)
		return nil, false, nil
	}
	data, err := os.ReadFile(objectPath(s.dir, key))
	if err != nil {
		// The object vanished under us (manual deletion); drop the entry.
		s.mu.Lock()
		if cur, ok := s.entries[key]; ok && cur == e {
			s.lru.Remove(e.elem)
			delete(s.entries, key)
			s.size -= e.size
		}
		s.mu.Unlock()
		obsStoreMisses.Add(1)
		return nil, false, nil
	}
	obsStoreHits.Add(1)
	return data, true, nil
}

// Contains reports whether a key is present without touching LRU order
// or disk.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put stores result bytes under a key: temp file, fsync-free atomic
// rename, then LRU accounting and eviction. Re-putting an existing key
// is a no-op (results are content-addressed and immutable).
func (s *Store) Put(key string, data []byte) error {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("service: invalid store key %q", key)
	}
	if s.Contains(key) {
		return nil
	}
	path := objectPath(s.dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return nil // raced with an identical Put; the object is the same
	}
	e := &storeEntry{key: key, size: int64(len(data))}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.size += e.size
	obsStorePutBytes.Add(uint64(len(data)))
	s.evictLocked()
	return nil
}

// evictLocked deletes least-recently-used objects until the store is
// back under budget. At least one object is always retained so a
// single oversized result is still served.
func (s *Store) evictLocked() {
	for s.size > s.maxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.entries, e.key)
		s.size -= e.size
		os.Remove(objectPath(s.dir, e.key))
		obsStoreEvictions.Add(1)
	}
}

// Flush persists the LRU index atomically (temp + rename), so the next
// OpenStore resumes with the same eviction order.
func (s *Store) Flush() error {
	s.mu.Lock()
	idx := storeIndex{Order: make([]string, 0, s.lru.Len())}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		idx.Order = append(idx.Order, el.Value.(*storeEntry).key)
	}
	s.mu.Unlock()
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "index-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, "index.json"))
}

// StoreStats is a snapshot of the store's occupancy.
type StoreStats struct {
	Objects int
	Bytes   int64
	Cap     int64
}

// Stats reports current occupancy.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Objects: len(s.entries), Bytes: s.size, Cap: s.maxBytes}
}

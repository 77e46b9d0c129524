package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vcprof/internal/memo"
)

// Store is the content-addressed, disk-persistent result store. One
// object per job key under dir/objects/<k[:2]>/<k>.json, written to a
// temp file in the same directory and atomically renamed, so a crash
// can never leave a torn object — an object either exists complete or
// not at all. Total size is bounded: least-recently-used objects are
// evicted (deleted) once the budget is exceeded, except that the last
// object always stays, so a single oversized result is still served.
//
// The LRU order is persisted in dir/index.json by Flush (called on
// graceful shutdown); on open, objects missing from the index are
// appended in sorted-key order, so a store rebuilt from a crashed
// server still loads deterministically.
type Store struct {
	dir string

	mu  sync.Mutex
	lru *memo.LRU[string, struct{}] // weight = object bytes, cap = the size budget
}

// storeIndex is the on-disk index document.
type storeIndex struct {
	Order []string `json:"order"` // most recently used first
}

// Temp-file patterns of the two atomic writers. A crash between
// CreateTemp and Rename orphans one; load sweeps exactly these.
const (
	putTempPattern   = "put-*.tmp"
	indexTempPattern = "index-*.tmp"
)

// OpenStore opens (creating if needed) a store rooted at dir with the
// given size budget in bytes (<=0 means 1 GiB).
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, lru: memo.NewLRU(maxBytes, func(key string, _ struct{}) {
		os.Remove(objectPath(dir, key))
		obsStoreEvictions.Add(1)
	})}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load scans the object tree, sweeps orphaned temp files and replays
// the persisted LRU order.
func (s *Store) load() error {
	sizes := make(map[string]int64)
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if orphan, _ := filepath.Match(putTempPattern, name); orphan {
			os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(name, ".json") {
			return nil // foreign file
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
	if ents, err := os.ReadDir(s.dir); err == nil {
		for _, e := range ents {
			if orphan, _ := filepath.Match(indexTempPattern, e.Name()); orphan {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
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
	// Insert back-to-front so index order survives as recency order.
	for i := len(order) - 1; i >= 0; i-- {
		s.lru.Put(order[i], struct{}{}, objectWeight(sizes[order[i]]))
	}
	return nil
}

// objectWeight charges an object its size; an empty one still costs a
// byte, since weight 0 would pin it.
func objectWeight(size int64) int64 { return max(size, 1) }

// objectPath returns the on-disk path for a key under a store root.
func objectPath(dir, key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(dir, "objects", prefix, key+".json")
}

// writeAtomic writes data to path through a temp file in the same
// directory and an fsync-free rename, so path is either absent, its
// old content, or the whole of data — never torn.
func writeAtomic(path, tempPattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Get returns the stored result bytes for a key, marking it most
// recently used.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	_, ok := s.lru.Get(key)
	s.mu.Unlock()
	if !ok {
		obsStoreMisses.Add(1)
		return nil, false, nil
	}
	data, err := os.ReadFile(objectPath(s.dir, key))
	if err != nil {
		// The object vanished under us (manual deletion); drop the entry.
		s.mu.Lock()
		s.lru.Remove(key)
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
	_, ok := s.lru.Peek(key)
	return ok
}

// Put stores result bytes under a key: atomic write, then LRU
// accounting and eviction. Re-putting an existing key is a no-op
// (results are content-addressed and immutable).
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
	if err := writeAtomic(path, putTempPattern, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lru.Peek(key); ok {
		return nil // raced with an identical Put; the object is the same
	}
	s.lru.Put(key, struct{}{}, objectWeight(int64(len(data))))
	obsStorePutBytes.Add(uint64(len(data)))
	return nil
}

// Flush persists the LRU index atomically, so the next OpenStore
// resumes with the same eviction order.
func (s *Store) Flush() error {
	s.mu.Lock()
	idx := storeIndex{Order: s.lru.Keys()}
	s.mu.Unlock()
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(s.dir, "index.json"), indexTempPattern, append(data, '\n'))
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
	return StoreStats{Objects: s.lru.Len(), Bytes: s.lru.Weight(), Cap: s.lru.Cap()}
}

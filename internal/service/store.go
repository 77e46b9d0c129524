package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"vcprof/internal/memo"
)

// Store is the content-addressed, disk-persistent result store. Each
// result is one checksummed record appended to the newest of the
// size-capped files dir/segments/<seq>.seg, so a crash can tear only
// that file's tail, which the next open cuts off. Total size is bounded
// by an LRU over body bytes: least-recently-used results are evicted
// (cancelled on disk by a tombstone record) once the budget is exceeded,
// except that the last result always stays, so a single oversized result
// is still served.
//
// The LRU order is persisted in dir/index.json by Flush (called on
// graceful shutdown); on open, results missing from the index are
// appended in sorted-key order, so a store rebuilt from a crashed
// server still loads deterministically.
type Store struct {
	dir    string
	segCap int64 // the active segment rotates before a record would take it past this

	mu   sync.Mutex
	lru  *memo.LRU[string, recLoc] // weight = body bytes, cap = the size budget
	segs []*segment                // oldest first; the last is the active one
}

// segment is one segment file; live is the bytes of its records in the LRU.
type segment struct {
	seq        uint64
	f          *os.File
	size, live int64
}

// recLoc locates a live record: its segment, frame offset and body length.
type recLoc struct {
	seg    *segment
	off, n int64
}

// A record is a kind byte, the key as 32 raw bytes, the body length
// (uint32, little-endian), the body's SHA-256, then the body.
const (
	recPut       = 'P'
	recTombstone = 'T' // cancels every earlier put of its key
	recHeader    = 1 + 32 + 4 + sha256.Size
)

// storeIndex is the on-disk index document.
type storeIndex struct {
	Order []string `json:"order"` // most recently used first
}

// indexTempPattern is Flush's temp file, which open sweeps.
const indexTempPattern = "index-*.tmp"

// OpenStore opens (creating if needed) a store rooted at dir with the
// given size budget in bytes (<=0 means 1 GiB).
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, segCap: min(max(maxBytes/16, 4<<10), 8<<20)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru = memo.NewLRU(math.MaxInt64, func(key string, loc recLoc) {
		obsStoreEvictions.Add(1)
		s.tombstoneLocked(key, loc)
	})
	if err := s.loadLocked(maxBytes); err != nil {
		return nil, err
	}
	return s, nil
}

// loadLocked scans the segments oldest first, where a later record of a
// key supersedes every earlier one, sweeps orphaned index temps and
// replays the persisted LRU order before the budget applies.
func (s *Store) loadLocked(maxBytes int64) error {
	ents, err := os.ReadDir(filepath.Join(s.dir, "segments"))
	if err != nil {
		return err
	}
	for _, e := range ents { // by name, which for segments is by seq
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "%d.seg", &seq); err != nil || segName(seq) != e.Name() {
			continue // foreign file
		}
		seg, err := s.openSegmentLocked(seq)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(seg.f.Name())
		if err != nil {
			return err
		}
		seg.size = scan(data, func(key string, off, end int64) {
			if old, ok := s.lru.Peek(key); ok {
				old.seg.live -= recHeader + old.n
				s.lru.Remove(key)
			}
			if data[off] == recPut && !intact(data[off:end]) {
				obsStoreCorrupt.Add(1)
			} else if data[off] == recPut {
				s.lru.Put(key, recLoc{seg, off, end - off - recHeader}, objectWeight(end-off-recHeader))
				seg.live += end - off
			}
		})
		if seg.size < int64(len(data)) { // a torn append: cut it off
			if err := seg.f.Truncate(seg.size); err != nil {
				return err
			}
		}
	}
	if len(s.segs) == 0 {
		if _, err := s.openSegmentLocked(1); err != nil {
			return err
		}
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
	// Recency: the index's keys in its order, then the rest sorted.
	keys := s.lru.Keys()
	slices.Sort(keys)
	for i := len(keys) - 1; i >= 0; i-- {
		s.lru.Get(keys[i])
	}
	for i := len(idx.Order) - 1; i >= 0; i-- {
		s.lru.Get(idx.Order[i])
	}
	s.lru.SetCap(maxBytes)
	s.reclaimLocked()
	return nil
}

// scan calls fn on each whole record in data, in order, and returns
// where they end. It stops at a record that runs past the end of data
// or has no known kind: that is where a torn append leaves a segment.
func scan(data []byte, fn func(key string, off, end int64)) (off int64) {
	for int64(len(data))-off >= recHeader {
		end := off + recHeader + int64(binary.LittleEndian.Uint32(data[off+33:]))
		if (data[off] != recPut && data[off] != recTombstone) || end > int64(len(data)) {
			break
		}
		fn(hex.EncodeToString(data[off+1:off+33]), off, end)
		off = end
	}
	return off
}

// intact reports whether a record's body matches its checksum.
func intact(rec []byte) bool {
	return sha256.Sum256(rec[recHeader:]) == [sha256.Size]byte(rec[37:recHeader])
}

// record builds a record for a well-formed key.
func record(kind byte, key string, body []byte) []byte {
	rec := make([]byte, recHeader+len(body))
	rec[0] = kind
	_, _ = hex.Decode(rec[1:33], []byte(key)) // Put and the LRU hold only isResultKey keys
	binary.LittleEndian.PutUint32(rec[33:], uint32(len(body)))
	sum := sha256.Sum256(body)
	copy(rec[37:], sum[:])
	copy(rec[recHeader:], body)
	return rec
}

// segName is fixed-width, so segment names sort as their numbers do.
func segName(seq uint64) string { return fmt.Sprintf("%020d.seg", seq) }

// openSegmentLocked opens (creating if needed) segment seq as the newest.
func (s *Store) openSegmentLocked(seq uint64) (*segment, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, "segments", segName(seq)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s.segs = append(s.segs, &segment{seq: seq, f: f})
	return s.segs[len(s.segs)-1], nil
}

// appendLocked writes a record at the end of the active segment, first
// rotating if it would pass the cap. A failed write leaves the end where
// it was, so the next one overwrites whatever part of it landed.
func (s *Store) appendLocked(rec []byte) (recLoc, error) {
	seg := s.segs[len(s.segs)-1]
	if seg.size > 0 && seg.size+int64(len(rec)) > s.segCap {
		var err error
		if seg, err = s.openSegmentLocked(seg.seq + 1); err != nil {
			return recLoc{}, err
		}
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return recLoc{}, err
	}
	if rec[0] == recPut {
		seg.live += int64(len(rec))
	}
	seg.size += int64(len(rec))
	return recLoc{seg, seg.size - int64(len(rec)), int64(len(rec)) - recHeader}, nil
}

// tombstoneLocked cancels on disk the record at loc, which the LRU has
// just dropped. A lost tombstone only lets the result, a pure function
// of its key, come back after a restart, so its error is dropped.
func (s *Store) tombstoneLocked(key string, loc recLoc) {
	loc.seg.live -= recHeader + loc.n
	_, _ = s.appendLocked(record(recTombstone, key, nil))
}

// reclaimLocked frees disk from the oldest end only: the oldest sealed
// segment goes, its live records copied forward first, once less than
// half of it is live or while all segments' dead bytes exceed the budget.
// So every tombstone stays as long as the put it cancels, and the
// segments within twice the budget plus record headers and two segments.
func (s *Store) reclaimLocked() {
	for len(s.segs) > 1 {
		var dead int64
		for _, seg := range s.segs {
			dead += seg.size - seg.live
		}
		old := s.segs[0]
		if old.live > 0 && old.live*2 >= old.size && dead <= s.lru.Cap() {
			return
		}
		if old.live > 0 && s.copyForwardLocked(old) != nil {
			return
		}
		s.segs = s.segs[1:]
		old.f.Close()
		os.Remove(old.f.Name())
	}
}

// copyForwardLocked re-appends old's live records, leaving the recency
// order as it was.
func (s *Store) copyForwardLocked(old *segment) error {
	data := make([]byte, old.size)
	_, err := old.f.ReadAt(data, 0)
	scan(data, func(key string, off, end int64) {
		if loc, ok := s.lru.Peek(key); ok && err == nil && loc.seg == old && loc.off == off {
			if loc, err = s.appendLocked(data[off:end]); err == nil {
				old.live -= end - off
				s.lru.Put(key, loc, objectWeight(loc.n))
			}
		}
	})
	return err
}

// objectWeight charges a result its size; an empty one still costs a
// byte, since weight 0 would pin it.
func objectWeight(size int64) int64 { return max(size, 1) }

// writeAtomic writes data to path through a temp file in the same
// directory and an fsync-free rename, so path is either absent, its
// old content, or the whole of data — never torn.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), indexTempPattern)
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
// recently used. A record that reads back short or fails its checksum
// is a miss: it is dropped and counted.
func (s *Store) Get(key string) ([]byte, bool, error) {
	for {
		s.mu.Lock()
		loc, ok := s.lru.Get(key)
		s.mu.Unlock()
		if !ok {
			obsStoreMisses.Add(1)
			return nil, false, nil
		}
		// Segments are append-only; one deleted meanwhile fails the read.
		rec := make([]byte, recHeader+loc.n)
		if _, err := loc.seg.f.ReadAt(rec, loc.off); err == nil && intact(rec) {
			obsStoreHits.Add(1)
			return rec[recHeader:], true, nil
		}
		// Bad bytes, unless reclamation moved the record meanwhile: then
		// look again.
		s.mu.Lock()
		if cur, ok := s.lru.Peek(key); ok && cur == loc {
			s.lru.Remove(key)
			s.tombstoneLocked(key, loc)
			obsStoreCorrupt.Add(1)
		}
		s.mu.Unlock()
	}
}

// Contains reports whether a key is present without touching LRU order
// or disk.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.lru.Peek(key)
	return ok
}

// Put stores result bytes under a key (a 64-hex content address): one
// append, then LRU accounting, eviction and reclamation. Re-putting an
// existing key is a no-op (results are content-addressed and immutable).
func (s *Store) Put(key string, data []byte) error {
	if !isResultKey(key) || int64(len(data)) > math.MaxUint32 {
		return fmt.Errorf("service: invalid store key %q or %d-byte result", key, len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lru.Peek(key); ok {
		return nil
	}
	loc, err := s.appendLocked(record(recPut, key, data))
	if err != nil {
		return err
	}
	s.lru.Put(key, loc, objectWeight(loc.n))
	obsStorePutBytes.Add(uint64(len(data)))
	s.reclaimLocked()
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
	return writeAtomic(filepath.Join(s.dir, "index.json"), append(data, '\n'))
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

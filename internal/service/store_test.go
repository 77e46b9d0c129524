package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vcprof/internal/obs"
)

// tkey derives a well-formed (hex) store key from a label.
// corruptCount reads the svc.store.corrupt counter off the registry.
func corruptCount() uint64 {
	for _, c := range obs.Counters(true) {
		if c.Name == "svc.store.corrupt" {
			return c.Value
		}
	}
	return 0
}

func tkey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := tkey("a")
	data := []byte(`{"v":1}` + "\n")
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(key) {
		t.Fatal("Contains is false after Put")
	}
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	// Re-putting an immutable object is a no-op, not an error.
	if err := st.Put(key, data); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if s := st.Stats(); s.Objects != 1 || s.Bytes != int64(len(data)) {
		t.Errorf("stats = %+v", s)
	}
	// No temp files left behind.
	var matches []string
	filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			matches = append(matches, path)
		}
		return err
	})
	if len(matches) != 0 {
		t.Errorf("temp files not cleaned: %v", matches)
	}
}

func TestStoreRejectsTraversalKeys(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "x.json"} {
		if err := st.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted malformed key %q", key)
		}
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	st, err := OpenStore(dir, 250) // fits two 100-byte objects, not three
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{tkey("1"), tkey("2"), tkey("3")}
	for _, k := range keys {
		if err := st.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st.Contains(keys[0]) {
		t.Error("least-recently-used object survived over-budget Put")
	}
	if !st.Contains(keys[1]) || !st.Contains(keys[2]) {
		t.Error("recently used objects were evicted")
	}
	// Evicted means gone, durably: its tombstone outlives a restart
	// that never flushed the index.
	if reopened, err := OpenStore(dir, 250); err != nil || reopened.Contains(keys[0]) {
		t.Errorf("evicted object back after reopen (err %v)", err)
	}
	if s := st.Stats(); s.Bytes > 250 {
		t.Errorf("store over budget: %+v", s)
	}
}

// TestStoreFlushReloadPreservesLRU pins the warm-restart contract: the
// index persists recency order, so eviction decisions after a restart
// match what they would have been without one.
func TestStoreFlushReloadPreservesLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 100)
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tkey("a"), tkey("b"), tkey("c")
	for _, k := range []string{a, b, c} {
		if err := st.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so recency is a, c, b (most to least recent).
	if _, ok, _ := st.Get(a); !ok {
		t.Fatal("Get(a) missed")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reopen with room for only two objects: b — the LRU per the
	// persisted index — must be the one evicted.
	st2, err := OpenStore(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Contains(a) || !st2.Contains(c) {
		t.Error("recently used objects lost across restart")
	}
	if st2.Contains(b) {
		t.Error("LRU order not preserved across restart: b survived")
	}
}

func TestStoreReloadWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{tkey("p"), tkey("q")}
	for _, k := range keys {
		if err := st.Put(k, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Flush, no index. Reload must still find every object.
	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !st2.Contains(k) {
			t.Errorf("object %s lost without index", k[:8])
		}
	}
	// A corrupt index degrades to the same fallback.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Contains(keys[0]) || !st3.Contains(keys[1]) {
		t.Error("corrupt index lost objects")
	}
}

func TestStoreVanishedObject(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := tkey("gone")
	if err := st.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Overwrite the body in place: the record's frame stays intact and
	// only its checksum can tell.
	seg, err := os.OpenFile(filepath.Join(dir, "segments", segName(1)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("DATA"), recHeader); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	corrupt := corruptCount()
	if _, ok, err := st.Get(key); ok || err != nil {
		t.Fatalf("Get of vanished object: ok=%v err=%v, want miss", ok, err)
	}
	if st.Contains(key) {
		t.Error("vanished object still indexed after failed Get")
	}
	if n := corruptCount() - corrupt; n != 1 {
		t.Errorf("svc.store.corrupt rose by %d, want 1", n)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "objects", "zz"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", "zz", "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Objects != 0 {
		t.Errorf("stray file counted as object: %+v", s)
	}
	if strings.Contains(tkey("sanity"), "/") {
		t.Fatal("tkey produced a path separator")
	}
}

// TestStoreSweepsOrphanedTemps: a crash between CreateTemp and Rename
// in Flush leaves an index-*.tmp behind, and one inside an append
// leaves a torn segment tail. Open removes the first, cuts the second
// and touches nothing else.
func TestStoreSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "objects", "zz")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{filepath.Join(dir, "index-456.tmp")}
	foreign := []string{filepath.Join(sub, "put-123.tmp"), filepath.Join(sub, "stray.tmp"), filepath.Join(dir, "notes.tmp")}
	for _, p := range append(orphans, foreign...) {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(dir, "segments", segName(1))
	if err := os.WriteFile(torn, record(recPut, tkey("torn"), []byte("data"))[:recHeader+2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Objects != 0 || s.Bytes != 0 {
		t.Errorf("temp files counted: %+v", s)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphaned temp %s survived open (stat err %v)", p, err)
		}
	}
	for _, p := range foreign {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("foreign file %s was touched: %v", p, err)
		}
	}
	if info, err := os.Stat(torn); err != nil || info.Size() != 0 {
		t.Errorf("torn segment tail not cut (stat %v, err %v)", info, err)
	}
}

// segBytes sums the store's segment files as they stand on disk.
func segBytes(t testing.TB, dir string) (n int64) {
	ents, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// closeStore closes the store's segment files, which a long-lived
// server keeps open until it exits.
func closeStore(st *Store) {
	for _, seg := range st.segs {
		seg.f.Close()
	}
}

// TestStoreTornTailIsTruncated: a crash in mid-append leaves the last
// record cut somewhere in its header or body. Open serves every earlier
// record, drops the torn one, cuts the file back to the last good
// record, and appends after it.
func TestStoreTornTailIsTruncated(t *testing.T) {
	bodies := map[string][]byte{tkey("a"): []byte("alpha"), tkey("b"): []byte("bravo!")}
	last := tkey("c")
	for _, cut := range []int{1, 33, 40, recHeader - 1, recHeader, recHeader + 3} {
		dir := t.TempDir()
		st, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{tkey("a"), tkey("b")} {
			if err := st.Put(k, bodies[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(last, []byte("charlie")); err != nil {
			t.Fatal(err)
		}
		closeStore(st)
		good := int64(2*recHeader + len("alpha") + len("bravo!"))
		if err := os.Truncate(filepath.Join(dir, "segments", segName(1)), good+int64(cut)); err != nil {
			t.Fatal(err)
		}
		st, err = OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range bodies {
			if got, ok, err := st.Get(k); !ok || err != nil || !bytes.Equal(got, want) {
				t.Errorf("cut %d: Get %s = %q, %v, %v; want %q", cut, k[:8], got, ok, err, want)
			}
		}
		if st.Contains(last) {
			t.Errorf("cut %d: torn record indexed", cut)
		}
		if n := segBytes(t, dir); n != good {
			t.Errorf("cut %d: segment holds %d bytes, want %d", cut, n, good)
		}
		if err := st.Put(last, []byte("charlie")); err != nil {
			t.Fatal(err)
		}
		if got, ok, _ := st.Get(last); !ok || string(got) != "charlie" {
			t.Errorf("cut %d: Put after truncation reads back %q, %v", cut, got, ok)
		}
		closeStore(st)
	}
}

// TestStoreOpenSkipsCorruptRecord: a record whose frame is intact but
// whose body no longer matches its checksum is skipped at open and
// counted; the records around it load.
func TestStoreOpenSkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tkey("a"), tkey("b"), tkey("c")
	for _, k := range []string{a, b, c} {
		if err := st.Put(k, []byte("body-"+k[:4])); err != nil {
			t.Fatal(err)
		}
	}
	closeStore(st)
	seg, err := os.OpenFile(filepath.Join(dir, "segments", segName(1)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("BODY"), 2*recHeader+9); err != nil { // b's body
		t.Fatal(err)
	}
	seg.Close()
	corrupt := corruptCount()
	st, err = OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(st)
	if st.Contains(b) || !st.Contains(a) || !st.Contains(c) {
		t.Errorf("after reopen: a=%v b=%v c=%v, want only b gone", st.Contains(a), st.Contains(b), st.Contains(c))
	}
	if n := corruptCount() - corrupt; n != 1 {
		t.Errorf("svc.store.corrupt rose by %d, want 1", n)
	}
}

// TestStoreDiskStaysBounded drives seeded Put/Get churn through a store
// far smaller than its key space: after every operation the segments
// stay within twice the budget plus two segments, and every key the
// store claims reads back its exact bytes, then and after a reopen.
func TestStoreDiskStaysBounded(t *testing.T) {
	const budget, segCap = 8 << 10, 4 << 10
	dir := t.TempDir()
	st, err := OpenStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 40)
	body := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i)}, 1<<10) }
	for i := range keys {
		keys[i] = tkey(fmt.Sprint("churn", i))
	}
	check := func(st *Store, when string) {
		t.Helper()
		for i, k := range keys {
			if !st.Contains(k) {
				continue
			}
			if got, ok, err := st.Get(k); !ok || err != nil || !bytes.Equal(got, body(i)) {
				t.Fatalf("%s: key %d reads back %d bytes, ok=%v err=%v", when, i, len(got), ok, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 1500; op++ {
		i := rng.Intn(len(keys))
		if rng.Intn(3) == 0 {
			st.Get(keys[i])
		} else if err := st.Put(keys[i], body(i)); err != nil {
			t.Fatal(err)
		}
		if n := segBytes(t, dir); n > 2*budget+2*segCap {
			t.Fatalf("op %d: segments hold %d bytes, bound %d", op, n, 2*budget+2*segCap)
		}
		check(st, fmt.Sprint("op ", op))
	}
	reopened, err := OpenStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if st.Contains(k) != reopened.Contains(k) {
			t.Errorf("key %d: Contains %v before reopen, %v after", i, st.Contains(k), reopened.Contains(k))
		}
	}
	check(reopened, "reopen")
}

// TestStoreConcurrentUse hammers a tiny store from several goroutines,
// so puts, evictions and reclamation race reads: every Get is the
// key's exact bytes or a miss, and none is taken for corruption.
func TestStoreConcurrentUse(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200+i*40) }
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = tkey(fmt.Sprint("hammer", i))
	}
	corrupt := corruptCount()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for op := 0; op < 400; op++ {
				i := rng.Intn(len(keys))
				switch rng.Intn(3) {
				case 0:
					if err := st.Put(keys[i], body(i)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if got, ok, err := st.Get(keys[i]); err != nil || (ok && !bytes.Equal(got, body(i))) {
						t.Errorf("Get %d: %d bytes, ok=%v err=%v", i, len(got), ok, err)
						return
					}
				default:
					st.Contains(keys[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if n := corruptCount() - corrupt; n != 0 {
		t.Errorf("%d reads taken for corruption", n)
	}
	if s := st.Stats(); s.Bytes > 2<<10 && s.Objects > 1 {
		t.Errorf("store over budget: %+v", s)
	}
}

// FuzzStoreOpen writes arbitrary bytes as a segment and opens a store
// on it: open never fails or panics, every indexed key reads back
// bytes matching their checksum or misses, and the store then takes a
// Put and serves it back.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "segments", segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		defer closeStore(st)
		st.mu.Lock()
		keys := st.lru.Keys()
		st.mu.Unlock()
		for _, k := range keys {
			// A hit is a body that passed its checksum: the segment holds
			// that checksum followed by those bytes.
			got, ok, err := st.Get(k)
			sum := sha256.Sum256(got)
			if err != nil || (ok && !bytes.Contains(seg, append(sum[:], got...))) {
				t.Fatalf("Get %s: %d bytes, ok=%v err=%v", k[:8], len(got), ok, err)
			}
		}
		key := tkey("after")
		if err := st.Put(key, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := st.Get(key); !ok || err != nil || string(got) != "fresh" {
			t.Fatalf("Put after open reads back %q, %v, %v", got, ok, err)
		}
	})
}

// benchStore is a store at an 8 MiB budget, so a long Put run pays for
// its evictions and reclamation, and n distinct keys.
func benchStore(b *testing.B, n int) (*Store, []string, []byte) {
	st, err := OpenStore(b.TempDir(), 8<<20)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = tkey(fmt.Sprint("bench", i))
	}
	return st, keys, bytes.Repeat([]byte("r"), 4<<10)
}

// BenchmarkStorePut times one 4 KiB result appended to the store.
func BenchmarkStorePut(b *testing.B) {
	st, keys, body := benchStore(b, b.N)
	defer closeStore(st)
	b.ResetTimer()
	for _, k := range keys {
		if err := st.Put(k, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
}

// BenchmarkStoreGet times one 4 KiB hit, checksum included.
func BenchmarkStoreGet(b *testing.B) {
	st, keys, body := benchStore(b, 1024)
	defer closeStore(st)
	for _, k := range keys {
		if err := st.Put(k, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(keys[i%len(keys)]); !ok || err != nil {
			b.Fatalf("Get missed: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
}

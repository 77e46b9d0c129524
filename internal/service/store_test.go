package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tkey derives a well-formed (hex) store key from a label.
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
	matches, _ := filepath.Glob(filepath.Join(dir, "objects", "*", "*.tmp"))
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
	if _, err := os.Stat(objectPath(dir, keys[0])); !os.IsNotExist(err) {
		t.Errorf("evicted object still on disk: %v", err)
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
	if err := os.Remove(objectPath(dir, key)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(key); ok || err != nil {
		t.Fatalf("Get of vanished object: ok=%v err=%v, want miss", ok, err)
	}
	if st.Contains(key) {
		t.Error("vanished object still indexed after failed Get")
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
// leaves a put-*.tmp or index-*.tmp behind, outside the size budget.
// Open removes files matching exactly those patterns and nothing else.
func TestStoreSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "objects", "zz")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{filepath.Join(sub, "put-123.tmp"), filepath.Join(dir, "index-456.tmp")}
	foreign := []string{filepath.Join(sub, "stray.tmp"), filepath.Join(dir, "notes.tmp")}
	for _, p := range append(orphans, foreign...) {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
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
}

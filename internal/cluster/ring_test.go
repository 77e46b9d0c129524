package cluster

import (
	"fmt"
	"testing"

	"vcprof/internal/obs"
)

// TestRingDeterministicOwnership pins the ring as a pure function:
// the same (shard set, vnodes) built twice — in any input order —
// yields identical ownership for every key.
func TestRingDeterministicOwnership(t *testing.T) {
	a := NewRing([]string{"s0", "s1", "s2", "s3"}, 64)
	b := NewRing([]string{"s3", "s1", "s0", "s2"}, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%04d", i)
		oa, ob := a.Owners(key, 2), b.Owners(key, 2)
		if len(oa) != 2 || len(ob) != 2 || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("key %s: owners %v vs %v across input orders", key, oa, ob)
		}
	}
}

// TestRingDistinctOwners checks the replica walk: owners are always
// distinct shards, and requests for more replicas than shards clamp.
func TestRingDistinctOwners(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 32)
	for i := 0; i < 200; i++ {
		owners := r.Owners(fmt.Sprintf("k%d", i), 3)
		if len(owners) != 3 {
			t.Fatalf("k%d: got %d owners, want 3", i, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("k%d: duplicate owner %s in %v", i, o, owners)
			}
			seen[o] = true
		}
	}
	if got := r.Owners("k", 99); len(got) != 3 {
		t.Fatalf("overscribed replica request returned %v, want all 3 shards", got)
	}
}

// TestRingBalance bounds dispersion: with SHA-256 positions and 64
// vnodes, no shard of four may own more than half of a 2000-key
// sample, and every shard owns at least something.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"s0", "s1", "s2", "s3"}, 64)
	counts := map[string]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		counts[r.Owners(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	for _, s := range []string{"s0", "s1", "s2", "s3"} {
		c := counts[s]
		if c == 0 {
			t.Fatalf("shard %s owns no keys: %v", s, counts)
		}
		if c > n/2 {
			t.Fatalf("shard %s owns %d/%d keys — ring is pathologically unbalanced: %v", s, c, n, counts)
		}
	}
}

// TestRingMinimalRemap pins the consistent-hashing property the
// warm-cache routing depends on: dropping one shard remaps only the
// keys that shard owned — every other key keeps its primary owner.
func TestRingMinimalRemap(t *testing.T) {
	full := NewRing([]string{"s0", "s1", "s2", "s3"}, 64)
	less := NewRing([]string{"s0", "s1", "s2"}, 64)
	moved := 0
	const n = 1000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owners(key, 1)[0]
		after := less.Owners(key, 1)[0]
		if before == "s3" {
			moved++
			continue // had to move; any surviving shard is fine
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, before, after)
		}
	}
	if moved == 0 || moved == n {
		t.Fatalf("implausible remap count %d/%d", moved, n)
	}
}

// TestFoldDigestIndexOrder pins the fold: the digest is a function of
// the per-job digests in index order — identical inputs agree, a swap
// of two entries changes the fold, and completion order is irrelevant
// because the caller addresses the slice by job index.
func TestFoldDigestIndexOrder(t *testing.T) {
	bodies := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	d1 := obs.FoldDigest(bodyDigests(bodies))
	d2 := obs.FoldDigest(bodyDigests([][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}))
	if d1 != d2 {
		t.Fatalf("identical inputs folded differently: %s vs %s", d1, d2)
	}
	swapped := obs.FoldDigest(bodyDigests([][]byte{[]byte("beta"), []byte("alpha"), []byte("gamma")}))
	if swapped == d1 {
		t.Fatal("fold ignored index order; digests cannot pin the mix")
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
}

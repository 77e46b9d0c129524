package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the configured shard set. Each
// shard contributes vnodes points at SHA-256-derived positions, so the
// layout is a pure function of (shard names, vnodes): every router
// instance — and every test — computes the same ownership for a key,
// across processes, platforms and Go releases. The ring is immutable;
// dead shards are skipped at candidate selection, not removed, so a
// revived shard gets its original keys back and the remap set under a
// failure is exactly the dead shard's arcs.
type Ring struct {
	points []ringPoint // sorted by (hash, shard)
	shards int
}

type ringPoint struct {
	hash  uint64
	shard string
}

// hash64 maps a string to a ring position: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 rather than a cheap multiplicative hash
// because keys are adversary-shaped strings (shard names, hex ids) and
// the ring's balance proof in the tests assumes uniform dispersion.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring for a shard-name set. Duplicate names are
// collapsed; order of the input does not matter.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{}
	for _, s := range shards {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		r.shards++
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(s + "#" + strconv.Itoa(i)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owners returns up to n distinct shards responsible for a key, in
// ring order starting at the key's position: the first is the primary
// owner, the rest are its replicas. n is clamped to the shard count.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > r.shards {
		n = r.shards
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			owners = append(owners, p.shard)
		}
	}
	return owners
}

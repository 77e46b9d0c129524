package obs

import (
	"crypto/sha256"
	"encoding/hex"
)

// FoldDigest folds per-item SHA-256 digests, in index order, into one
// digest: the SHA-256 over their concatenation. The index is a property
// of the work — a job's position in the seeded mix, a GOP's position in
// its stream — never of scheduling, so the fold is independent of
// completion order, worker interleaving, feed batching, topology and
// routing: the same mix served by one daemon, four shards, or a cluster
// that lost a shard mid-run must fold to the same bytes. vcload and
// vclive print it after every run, live sessions fold their GOPs with
// it, and the cross-topology equivalence matrix byte-compares it; this
// function is a deterministic root under vclint's detflow analyzer, so
// nothing volatile may ever reach it.
func FoldDigest(ds [][32]byte) string {
	h := sha256.New()
	for i := range ds {
		h.Write(ds[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

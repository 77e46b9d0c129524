// Package cluster scales the serving layer past one process: a router
// that consistent-hashes content-addressed job ids across N vcprofd
// shards with replication factor R, warm-cache-aware routing (prefer
// the shard whose result store already holds the id), hedged requests
// after a quantile-derived delay to cut tail latency, and
// retry-with-backoff failover when a shard dies mid-job. The Router is
// the gate's backend behind the job and session API internal/service
// serves (vcprofd -shards is the daemon front-end);
// internal/cluster/chaos is the deterministic fault-injection harness
// the test wall drives shards through.
//
// The cluster inherits the serving layer's determinism contract and
// extends it across topology: a job's result bytes depend only on its
// canonical spec, so routing, hedging, replication and failover decide
// only where and when work runs, never what it computes. vcload's
// order-independent digest therefore byte-verifies any topology (N=1,
// N=4, a shard SIGKILLed mid-run) against a single-daemon baseline —
// the property the cross-topology equivalence matrix and the chaos
// suite pin.
package cluster

import (
	"time"

	"vcprof/internal/service"
)

// Shard identifies one vcprofd backend the router can route to.
type Shard struct {
	Name string // stable identity on the hash ring and in stats
	URL  string // base URL, e.g. http://127.0.0.1:8791
}

// Config sizes a Router. Zero values select the defaults noted inline.
type Config struct {
	Shards   []Shard
	Replicas int // replication factor R: owners per key (default 1, clamped to len(Shards))

	// Hedging: when the primary attempt has not produced a result
	// after a delay derived from the serving shard's observed p95
	// latency, a second attempt starts on the next replica owner and
	// the first response wins. The derived delay is clamped to
	// [HedgeMin, HedgeMax] (defaults 25ms, 2s); until a shard has
	// HedgeAfter observations (default 16) the delay is HedgeMax —
	// hedge late rather than double work on a cold cluster.
	HedgeMin   time.Duration
	HedgeMax   time.Duration
	HedgeAfter int

	// Failover: an attempt that dies (connect error, 5xx, failed job)
	// moves to the next candidate shard after a backoff that doubles
	// per attempt (default 10ms base), one candidate per shard.
	RetryBackoff time.Duration

	// Health probing: every ProbeInterval (default 250ms; 0 disables
	// the prober, tests call Router.ProbeNow) the router probes each
	// shard's /v1/registry; ProbeFails consecutive failures (default
	// 2) mark a shard down and routing skips it until a probe
	// succeeds. Attempt failures count toward the same threshold, so
	// a dead shard is noticed by traffic even between probes.
	ProbeInterval time.Duration
	ProbeFails    int

	// MaxInflight bounds concurrently driven jobs; submissions beyond
	// it get 429 (default 64). ResultCacheEntries bounds the completed
	// result bodies the gate keeps in memory for GET /v1/results
	// (default 512; older entries are refetched from the owners).
	MaxInflight        int
	ResultCacheEntries int

	// Client is the shard-side HTTP transport (default: a dedicated
	// client with no overall timeout — per-drive contexts bound every
	// request). Tests inject fault-wrapped transports here.
	Client service.Doer
}

// The router's fixed parameters: virtual nodes per shard on the hash
// ring, the hedge delay's latency quantile, and one job's whole routed
// lifecycle across all attempts.
const (
	vnodes        = 64
	hedgeQuantile = 0.95
	driveTimeout  = 5 * time.Minute
)

func (c *Config) fill() {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Replicas > len(c.Shards) {
		c.Replicas = len(c.Shards)
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.HedgeAfter < 1 {
		c.HedgeAfter = 16
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.ProbeFails < 1 {
		c.ProbeFails = 2
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 64
	}
	if c.ResultCacheEntries < 1 {
		c.ResultCacheEntries = 512
	}
}

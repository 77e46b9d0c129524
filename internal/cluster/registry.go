package cluster

import (
	"sort"
	"sync"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// registry tracks per-shard liveness and routing statistics. One
// mutex guards everything; it is a leaf lock — no registry method
// calls out while holding it — so it can never participate in a lock
// cycle (vclint's lockorder pass checks this).
type registry struct {
	mu     sync.Mutex
	shards map[string]*shardState
	order  []string // sorted shard names, fixed at construction
}

type shardState struct {
	shard Shard
	alive bool
	fails int // consecutive probe/attempt failures

	// Routing statistics for /v1/cluster/stats (volatile by nature:
	// they follow scheduling, health and wall-clock, never results).
	routes   uint64 // drives this shard won
	warmHits uint64 // wins whose first submit found the result already stored
	failures uint64 // attempt failures charged to this shard
}

func newRegistry(shards []Shard) *registry {
	m := make(map[string]*shardState, len(shards))
	order := make([]string, 0, len(shards))
	for _, s := range shards { // NewRouter has checked the names: set, distinct
		m[s.Name] = &shardState{shard: s, alive: true}
		order = append(order, s.Name)
	}
	sort.Strings(order)
	return &registry{shards: m, order: order}
}

// names returns every configured shard in sorted-name order.
func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// lookup returns a shard's base URL and liveness.
func (r *registry) lookup(name string) (Shard, bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.shards[name]
	if !ok {
		return Shard{}, false, false
	}
	return st.shard, st.alive, true
}

// alive reports whether a shard is currently routable.
func (r *registry) isAlive(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.shards[name]
	return ok && st.alive
}

// aliveNames returns the routable shards in sorted-name order — the
// deterministic last-resort candidate list when no owner is up.
func (r *registry) aliveNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.order))
	for _, n := range r.order {
		if r.shards[n].alive {
			out = append(out, n)
		}
	}
	return out
}

// observeFailure charges one attempt or probe failure; threshold
// consecutive failures take the shard out of the rotation.
func (r *registry) observeFailure(name string, threshold int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.shards[name]
	if !ok {
		return
	}
	st.failures++
	st.fails++
	if st.alive && st.fails >= threshold {
		st.alive = false
	}
}

// observeSuccess resets the failure streak and revives the shard: any
// successful probe or served attempt proves it routable again.
func (r *registry) observeSuccess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.shards[name]
	if !ok {
		return
	}
	st.fails = 0
	st.alive = true
}

// observeWin credits a completed drive to its serving shard.
func (r *registry) observeWin(name string, warm bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.shards[name]
	if !ok {
		return
	}
	st.routes++
	if warm {
		st.warmHits++
	}
}

// ShardStats is one shard's row in /v1/cluster/stats.
type ShardStats struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Alive        bool   `json:"alive"`
	Routes       uint64 `json:"routes"`
	WarmHits     uint64 `json:"warm_hits"`
	Failures     uint64 `json:"failures"`
	LatencyP50MS uint64 `json:"latency_p50_ms"`
	LatencyP95MS uint64 `json:"latency_p95_ms"`
	LatencyObs   uint64 `json:"latency_observations"`
}

// snapshot renders every shard's row in sorted-name order; quantiles
// come from the per-shard served-latency histograms, read after the
// registry mutex is released so the mutex stays a leaf lock.
func (r *registry) snapshot() []ShardStats {
	r.mu.Lock()
	out := make([]ShardStats, 0, len(r.order))
	for _, n := range r.order {
		st := r.shards[n]
		out = append(out, ShardStats{
			Name:     n,
			URL:      st.shard.URL,
			Alive:    st.alive,
			Routes:   st.routes,
			WarmHits: st.warmHits,
			Failures: st.failures,
		})
	}
	r.mu.Unlock()
	for i := range out {
		snap := shardHist(out[i].Name).Snapshot()
		out[i].LatencyP50MS, out[i].LatencyP95MS, out[i].LatencyObs = snap.Quantile(0.50), snap.Quantile(0.95), snap.Count
	}
	return out
}

// Per-shard served-latency histograms, on the shared latency bucket
// layout so gate quantiles line up with vcprofd's svc.job.latency_ms
// and vcload's client-side distribution. Volatile: they measure wall
// time. Names follow the cluster-wide convention documented in
// internal/telemetry/naming.go (gate.<group>.<metric>, like the
// gate.* gauges). The obs registry is process-global and registration
// finds an existing name, so routers built over recurring shard names
// share their shards' histograms.
func shardHist(name string) *obs.Histogram {
	return obs.NewVolatileHistogram("gate.shard.latency_ms."+name, telemetry.LatencyBucketsMS)
}

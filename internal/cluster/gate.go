package cluster

import (
	"context"
	"net/http"

	"vcprof/internal/obs"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
)

// Stats is the /v1/cluster/stats document: the router's aggregate
// routing counters plus one row per shard. Everything here is
// volatile — it follows health, hedging races and wall-clock — and
// never feeds result bytes.
type Stats struct {
	Routes         uint64  `json:"routes"`
	WarmHits       uint64  `json:"warm_hits"`
	WarmRatePct    float64 `json:"warm_rate_pct"`
	Fallbacks      uint64  `json:"fallback_routes"`
	HedgesLaunched uint64  `json:"hedges_launched"`
	HedgesWon      uint64  `json:"hedges_won"`
	Failovers      uint64  `json:"failovers"`
	Retries429     uint64  `json:"retries_429"`
	ReplicasPushed uint64  `json:"replicas_pushed"`
	ReplicasFailed uint64  `json:"replicas_failed"`
	ProbeDown      uint64  `json:"probe_transitions_down"`
	ProbeUp        uint64  `json:"probe_transitions_up"`
	Rejected       uint64  `json:"rejected"`
	DrivesFailed   uint64  `json:"drives_failed"`
	Inflight       int     `json:"inflight"`

	SessionsOpened   uint64 `json:"sessions_opened"`
	SessionFailovers uint64 `json:"session_failovers"`

	Shards []ShardStats `json:"shards"`
}

// StatsNow snapshots the router's routing statistics.
func (r *Router) StatsNow() Stats {
	s := Stats{
		Routes:         r.n.routes.Load(),
		WarmHits:       r.n.warmHits.Load(),
		Fallbacks:      r.n.fallbacks.Load(),
		HedgesLaunched: r.n.hedgesLaunched.Load(),
		HedgesWon:      r.n.hedgesWon.Load(),
		Failovers:      r.n.failovers.Load(),
		Retries429:     r.n.retries429.Load(),
		ReplicasPushed: r.n.replicasPushed.Load(),
		ReplicasFailed: r.n.replicasFailed.Load(),
		ProbeDown:      r.n.probeDown.Load(),
		ProbeUp:        r.n.probeUp.Load(),
		Rejected:       r.n.rejected.Load(),
		DrivesFailed:   r.n.drivesFailed.Load(),
		Inflight:       r.api.Inflight(),
		Shards:         r.reg.snapshot(),

		SessionsOpened:   r.sessions.opened.Load(),
		SessionFailovers: r.sessions.failovers.Load(),
	}
	if s.Routes > 0 {
		s.WarmRatePct = 100 * float64(s.WarmHits) / float64(s.Routes)
	}
	return s
}

// Handler returns the gate's HTTP surface: the shared job and session
// API over the router — any daemon client, vcload included, points at a
// gate unchanged — plus the cluster introspection routes.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	r.api.Mount(mux)
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.StatsNow())
	})
	mux.HandleFunc("GET /v1/cluster/shards", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.reg.snapshot())
	})
	mux.HandleFunc("GET /v1/cluster/metrics", r.handleClusterMetrics)
	return mux
}

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	return r.st.draining
}

// Refuse is Draining: the gate keeps no refusal counter.
func (r *Router) Refuse() bool { return r.Draining() }

// Cached reports whether the gate's result cache holds key.
func (r *Router) Cached(key string) bool {
	_, ok, _ := r.Result(key)
	return ok
}

// Has reports whether the result cache or, failing it, one of the key's
// live candidate shards holds id — the ownership-hint probe (HEAD
// /v1/results/{id}), so a gate that never drove a job (a restart, an
// evicted entry) still answers "done" for anything the shards hold.
func (r *Router) Has(ctx context.Context, id string) (found bool) {
	if r.Cached(id) {
		return true
	}
	askShards(r, r.candidateList(id), true,
		func(c service.Client) (bool, error) { return c.HasResult(ctx, id) },
		func(_ string, has bool) bool {
			found = has
			return has
		})
	return found
}

// Result returns a completed job's bytes from the gate's result cache.
func (r *Router) Result(id string) ([]byte, bool, error) {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	body, ok := r.st.results.Get(id)
	return body, ok, nil
}

// Gauges are the router's instantaneous routing counters for /metrics.
func (r *Router) Gauges() []telemetry.GaugeSample {
	s := r.StatsNow()
	return []telemetry.GaugeSample{
		{Name: "gate.routes.total", Value: float64(s.Routes)},
		{Name: "gate.routes.warm", Value: float64(s.WarmHits)},
		{Name: "gate.routes.fallback", Value: float64(s.Fallbacks)},
		{Name: "gate.hedges.launched", Value: float64(s.HedgesLaunched)},
		{Name: "gate.hedges.won", Value: float64(s.HedgesWon)},
		{Name: "gate.failovers", Value: float64(s.Failovers)},
		{Name: "gate.retries_429", Value: float64(s.Retries429)},
		{Name: "gate.replicas.pushed", Value: float64(s.ReplicasPushed)},
		{Name: "gate.replicas.failed", Value: float64(s.ReplicasFailed)},
		{Name: "gate.inflight", Value: float64(s.Inflight)},
	}
}

// Cluster-wide trace collection and telemetry federation. Each process
// — the gate and every vcprofd shard — keeps its own bounded hop log
// and serves raw slices at GET /v1/trace/{id}; the gate's
// /v1/cluster/trace/{id} collects the slices from every live shard
// plus its own, merges them with obs.MergeHops and renders one Chrome
// trace. The deterministic view (?volatile=0) is byte-stable across
// topologies and reruns because every hop in it is content-derived and
// the gate mirrors the content facts it witnesses, so even slices lost
// to a killed shard leave no hole. /v1/cluster/metrics federates the
// shards' Prometheus expositions under per-shard labels, and /v1/slo
// folds the shards' live-SLO reports into cluster burn rates.

// Hops is the gate's own hop log.
func (r *Router) Hops() *obs.HopLog { return r.hops }

// TraceSlices gathers the hop slices for one trace: the gate's own,
// then every live shard's in sorted-name order. A shard that cannot
// answer (killed, draining) contributes nothing — by design the merged
// deterministic view is already whole without it.
func (r *Router) TraceSlices(ctx context.Context, id string) [][]obs.HopEvent {
	slices := [][]obs.HopEvent{r.hops.Slice(id)}
	askShards(r, r.reg.aliveNames(), true,
		func(c service.Client) (service.TraceSlice, error) { return c.TraceSlice(ctx, id) },
		func(_ string, slice service.TraceSlice) bool {
			slices = append(slices, slice.Events)
			return false
		})
	return slices
}

// handleClusterMetrics federates the live shards' Prometheus
// expositions: every sample reappears under a shard="<name>" label,
// plus a shard="cluster" rollup (sum). The volatile query parameter
// passes through, so ?volatile=0 federates only the deterministic
// subset — byte-stable for a fixed completed workload.
func (r *Router) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	volatile := req.URL.Query().Get("volatile") != "0"
	var shards []telemetry.ShardExposition
	askShards(r, r.reg.aliveNames(), true,
		func(c service.Client) (*telemetry.ParsedProm, error) { return c.Metrics(req.Context(), volatile) },
		func(name string, parsed *telemetry.ParsedProm) bool {
			shards = append(shards, telemetry.ShardExposition{Shard: name, P: parsed})
			return false
		})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WriteFederation(w, shards); err != nil {
		return
	}
}

// SLO folds every live shard's /v1/slo report into one cluster
// document with recomputed burn rates. Ratios survive aggregation: the
// cluster miss burn is total misses over total frames, not an average
// of per-shard rates.
func (r *Router) SLO(ctx context.Context) (total telemetry.SLOReport) {
	askShards(r, r.reg.aliveNames(), true,
		func(c service.Client) (telemetry.SLOReport, error) { return c.SLO(ctx) },
		func(_ string, rep telemetry.SLOReport) bool {
			total = total.Add(rep)
			return false
		})
	return total
}

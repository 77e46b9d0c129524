package cluster

import (
	"context"
	"net/http"

	"vcprof/internal/obs"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
)

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

func (r *Router) handleTraceSlice(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !obs.ValidTraceID(id) {
		service.WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	service.WriteJSON(w, http.StatusOK, service.TraceSlice{
		Proc: r.hops.Proc(), Trace: id, Events: r.hops.Slice(id),
	})
}

// collectSlices gathers the hop slices for one trace: the gate's own,
// then every live shard's in sorted-name order. A shard that cannot
// answer (killed, draining) contributes nothing — by design the merged
// deterministic view is already whole without it.
func (r *Router) collectSlices(ctx context.Context, id string) [][]obs.HopEvent {
	slices := [][]obs.HopEvent{r.hops.Slice(id)}
	askShards(r, r.reg.aliveNames(), true,
		func(c service.Client) (service.TraceSlice, error) { return c.TraceSlice(ctx, id) },
		func(_ string, slice service.TraceSlice) bool {
			slices = append(slices, slice.Events)
			return false
		})
	return slices
}

func (r *Router) handleClusterTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !obs.ValidTraceID(id) {
		service.WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	includeVolatile := req.URL.Query().Get("volatile") != "0"
	merged := obs.MergeHops(r.collectSlices(req.Context(), id), includeVolatile)
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteHopTrace(w, merged); err != nil {
		return
	}
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

// handleSLO folds every live shard's /v1/slo report into one cluster
// document with recomputed burn rates. Ratios survive aggregation: the
// cluster miss burn is total misses over total frames, not an average
// of per-shard rates.
func (r *Router) handleSLO(w http.ResponseWriter, req *http.Request) {
	var total telemetry.SLOReport
	askShards(r, r.reg.aliveNames(), true,
		func(c service.Client) (telemetry.SLOReport, error) { return c.SLO(req.Context()) },
		func(_ string, rep telemetry.SLOReport) bool {
			total = total.Add(rep)
			return false
		})
	service.WriteJSON(w, http.StatusOK, total)
}

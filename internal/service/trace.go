package service

import (
	"net/http"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// Distributed-trace endpoints. Every vcprofd keeps a bounded hop log
// (see internal/obs/hop.go) and serves its slice of any trace id; a
// gate collects slices from all shards and merges them, and a
// single-daemon deployment is just the degenerate one-slice merge —
// GET /v1/cluster/trace/{id} here answers exactly what a gate would
// assemble for a one-shard cluster, which is what the topology
// equivalence tests pin.

func (s *Server) handleTraceSlice(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	// An unknown trace answers 200 with zero events, not 404: a shard
	// that never saw the job legitimately has an empty slice, and the
	// collector must not treat that as a failed shard.
	WriteJSON(w, http.StatusOK, TraceSlice{
		Proc: s.hops.Proc(), Trace: id, Events: s.hops.Slice(id),
	})
}

func (s *Server) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	includeVolatile := r.URL.Query().Get("volatile") != "0"
	merged := obs.MergeHops([][]obs.HopEvent{s.hops.Slice(id)}, includeVolatile)
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteHopTrace(w, merged); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		return
	}
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, telemetry.SLOFromRegistry())
}

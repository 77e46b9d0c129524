package cluster

import (
	"net/http"

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
	r.st.mu.Lock()
	inflight := r.st.inflight
	r.st.mu.Unlock()
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
		Inflight:       inflight,
		Shards:         r.reg.snapshot(shardLatency),

		SessionsOpened:   r.sessions.opened.Load(),
		SessionFailovers: r.sessions.failovers.Load(),
	}
	if s.Routes > 0 {
		s.WarmRatePct = 100 * float64(s.WarmHits) / float64(s.Routes)
	}
	return s
}

// Handler returns the gate's HTTP surface: the vcprofd job lifecycle
// endpoints (so any daemon client — vcload included — can point at the
// gate unchanged) plus the cluster introspection endpoints.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("POST /v1/sessions", r.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/frames", r.handleSessionFeed)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", r.handleSessionStats)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleStatus)
	mux.HandleFunc("GET /v1/results/{id}", r.handleResult)
	mux.HandleFunc("GET /v1/cluster/stats", r.handleStats)
	mux.HandleFunc("GET /v1/cluster/shards", r.handleShards)
	mux.HandleFunc("GET /v1/trace/{id}", r.handleTraceSlice)
	mux.HandleFunc("GET /v1/cluster/trace/{id}", r.handleClusterTrace)
	mux.HandleFunc("GET /v1/cluster/metrics", r.handleClusterMetrics)
	mux.HandleFunc("GET /v1/slo", r.handleSLO)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealth)
	return mux
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec service.JobSpec
	if err := service.DecodeJSON(w, req, &spec); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, state, code, err := r.Submit(&spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		service.WriteError(w, code, "%v", err)
		return
	}
	service.WriteJSON(w, code, service.JobStatus{ID: id, Status: state, Cached: code == http.StatusOK})
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.URL.RawQuery != "" && !service.AwaitTerminal(w, req, r.driveDone) {
		return
	}
	id := req.PathValue("id")
	if state, errMsg, cached, ok := r.Status(id); ok {
		service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: id, Status: state, Cached: cached, Error: errMsg})
		return
	}
	// Unknown to this gate (restart, evicted): a cheap owner probe
	// still answers "done" for anything the shards hold.
	if r.headThrough(req, id) {
		service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: id, Status: service.StateDone, Cached: true})
		return
	}
	service.WriteError(w, http.StatusNotFound, "unknown job %q", id)
}

// headThrough asks the key's live candidate shards whether any already
// owns the result — the ownership-hint probe (HEAD /v1/results/{id}).
func (r *Router) headThrough(req *http.Request, id string) (found bool) {
	askShards(r, r.candidateList(id), true,
		func(c service.Client) (bool, error) { return c.HasResult(req.Context(), id) },
		func(_ string, has bool) bool {
			found = has
			return has
		})
	return found
}

func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	if req.URL.RawQuery != "" && !service.AwaitTerminal(w, req, r.driveDone) {
		return
	}
	id := req.PathValue("id")
	if body, ok := r.CachedResult(id); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	if state, errMsg, _, ok := r.Status(id); ok {
		if state == service.StateFailed {
			service.WriteJSON(w, http.StatusInternalServerError, service.JobStatus{ID: id, Status: state, Error: errMsg})
			return
		}
		service.WriteJSON(w, http.StatusConflict, service.JobStatus{ID: id, Status: state})
		return
	}
	if body, ok := r.FetchThrough(req.Context(), id); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	service.WriteError(w, http.StatusNotFound, "no result for %q", id)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.StatsNow())
}

func (r *Router) handleShards(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.reg.snapshot(shardLatency))
}

// handleMetrics renders the gate process's obs registry plus the
// router's instantaneous routing gauges in the Prometheus text
// exposition.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s := r.StatsNow()
	opts := telemetry.PromOptions{IncludeVolatile: req.URL.Query().Get("volatile") != "0"}
	if opts.IncludeVolatile {
		opts.Gauges = []telemetry.GaugeSample{
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
	if err := telemetry.WriteProm(w, opts); err != nil {
		return
	}
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	r.st.mu.Lock()
	draining := r.st.draining
	r.st.mu.Unlock()
	if draining {
		service.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

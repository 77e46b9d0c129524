package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// One API, two backends (DESIGN.md §8): a daemon and a gate serve the
// same job and session API from the handlers below — decoding,
// validation, ?wait=, every status code and JSON body — over one job
// table, whichever backend sits behind them.

// Backend is what a daemon (*Server, the local engine) and a gate
// (cluster.Router) do differently. Every counter and hop is the
// backend's own, emitted in these methods and never in the handlers: a
// gate and its shards can share a process, and a handler that counted
// would count each request twice.
type Backend interface {
	// Draining reports whether the backend has begun to drain. Refuse
	// is asked before a submit or a session create is read: true turns
	// it away with 503.
	Draining() bool
	Refuse() bool

	// Where finished bytes live. Cached answers a submit from this
	// process alone; Has may also probe the shards behind a gate (HEAD);
	// Result reads the bytes held here and FetchThrough asks the shards.
	Cached(key string) bool
	Has(ctx context.Context, id string) bool
	Result(id string) ([]byte, bool, error)
	FetchThrough(ctx context.Context, id string) ([]byte, bool)

	// Run starts a job the table has just admitted: a daemon queues it
	// for its workers, a gate drives it across the shards. An error
	// wrapping ErrSaturated is answered 429, any other 503. Joined is
	// told of a submit that joined an in-flight job instead.
	Run(j *Job) error
	Joined()

	// The session operations. An error made by Errorf carries its own
	// status; any other is a 500.
	CreateSession(ctx context.Context, req SessionCreateReq, key, trace string) (SessionCreateResp, error)
	FeedSession(ctx context.Context, id string, req SessionFeedReq) (SessionFeedResp, error)
	SessionStats(ctx context.Context, id string) (SessionStatsResp, error)
	DeleteSession(ctx context.Context, id string) error

	// Hops is this process's hop log. TraceSlices are the slices a
	// cluster trace merges: a daemon's own, which makes it a gate of one,
	// or a gate's own plus every live shard's.
	Hops() *obs.HopLog
	TraceSlices(ctx context.Context, id string) [][]obs.HopEvent
	// SLO is the live-session report; Gauges are the instantaneous
	// samples /metrics adds to the registry.
	SLO(ctx context.Context) telemetry.SLOReport
	Gauges() []telemetry.GaugeSample
}

// httpError is a backend's error answered with the status it names.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// Errorf builds a backend's error that the handlers answer with code.
func Errorf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// API is the shared job and session API over one backend and its job
// table.
type API struct {
	b    Backend
	jobs *jobTable
}

// NewAPI builds the API over b with an empty job table.
func NewAPI(b Backend) *API { return &API{b: b, jobs: newJobTable()} }

// Inflight counts the table's queued and running jobs.
func (a *API) Inflight() int { return a.jobs.len() }

type route struct {
	pattern string
	handler http.HandlerFunc
}

func (a *API) routes() []route {
	return []route{
		{"POST /v1/jobs", a.submit},
		{"GET /v1/jobs/{id}", a.status},
		{"DELETE /v1/jobs/{id}", a.abandon},
		{"GET /v1/results/{id}", a.result},
		{"POST /v1/sessions", a.createSession},
		{"POST /v1/sessions/{id}/frames", a.feedSession},
		{"GET /v1/sessions/{id}/stats", a.sessionStats},
		{"DELETE /v1/sessions/{id}", a.deleteSession},
		{"GET /v1/trace/{id}", a.traceSlice},
		{"GET /v1/cluster/trace/{id}", a.clusterTrace},
		{"GET /v1/slo", a.slo},
		{"GET /metrics", a.metrics},
		{"GET /healthz", a.health},
	}
}

// Mount registers the shared routes on mux; each side's Handler adds its
// own.
func (a *API) Mount(mux *http.ServeMux) {
	for _, rt := range a.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
}

// SharedRoutes lists the patterns Mount registers.
func SharedRoutes() []string {
	var out []string
	for _, rt := range (&API{}).routes() {
		out = append(out, rt.pattern)
	}
	return out
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	if a.b.Refuse() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec JobSpec
	if err := DecodeJSON(w, r, &spec); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := spec.Key()
	if a.b.Cached(key) {
		WriteJSON(w, http.StatusOK, JobStatus{ID: key, Status: StateDone, Cached: true})
		return
	}
	j, state, joined := a.jobs.getOrAdd(spec, key, traceIDFromRequest(r, obs.JobTraceID(key)))
	if joined {
		// Singleflight: this submission rides the identical in-flight
		// job; one computation will satisfy both.
		a.b.Joined()
		WriteJSON(w, http.StatusAccepted, JobStatus{ID: key, Status: state})
		return
	}
	if err := a.b.Run(j); err != nil {
		j.Finish("") // never started: untracked, and a twin that joined meanwhile is woken
		if errors.Is(err, ErrSaturated) {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	WriteJSON(w, http.StatusAccepted, JobStatus{ID: key, Status: StateQueued})
}

// MaxWait caps the ?wait= a lifecycle GET may ask for; a longer wait is
// served as this one.
const MaxWait = time.Minute

// await serves the wait parameter of GET /v1/jobs/{id} and GET
// /v1/results/{id}: it parks the request until the job is terminal, the
// wait (at most MaxWait) has passed or the client has gone, and the
// handler then answers exactly what it would answer a plain GET at that
// instant. An id with no queued or running job and wait=0 never park. It
// reports false once it has refused a malformed or negative wait with
// 400. Handlers call it only when the request has a query, so a plain GET
// pays nothing for it.
func (a *API) await(w http.ResponseWriter, r *http.Request) bool {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return true
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		WriteError(w, http.StatusBadRequest, "bad wait %q (want a duration such as 10s)", v)
		return false
	}
	done := a.jobs.doneOf(r.PathValue("id"))
	if done == nil || d == 0 {
		return true
	}
	t := time.NewTimer(min(d, MaxWait))
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-r.Context().Done():
	}
	return true
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" && !a.await(w, r) {
		return
	}
	id := r.PathValue("id")
	if state, errMsg, ok := a.jobs.status(id); ok {
		WriteJSON(w, http.StatusOK, JobStatus{ID: id, Status: state, Error: errMsg})
		return
	}
	if a.b.Has(r.Context(), id) {
		WriteJSON(w, http.StatusOK, JobStatus{ID: id, Status: StateDone, Cached: true})
		return
	}
	WriteError(w, http.StatusNotFound, "unknown job %q", id)
}

// abandon gives back the interest one accepted submit holds in a queued
// or running job; the job is cancelled once no submitter is left
// (jobTable.release). 404 means there was nothing to give back: the id
// is unknown or its job already finished.
func (a *API) abandon(w http.ResponseWriter, r *http.Request) {
	if id := r.PathValue("id"); !a.jobs.release(id) {
		WriteError(w, http.StatusNotFound, "no queued or running job %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) result(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" && !a.await(w, r) {
		return
	}
	id := r.PathValue("id")
	data, ok, err := a.b.Result(id)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		if state, errMsg, known := a.jobs.status(id); known {
			if state == StateFailed {
				WriteJSON(w, http.StatusInternalServerError, JobStatus{ID: id, Status: state, Error: errMsg})
				return
			}
			// Known but not finished: ask again.
			WriteJSON(w, http.StatusConflict, JobStatus{ID: id, Status: state})
			return
		}
		data, ok = a.b.FetchThrough(r.Context(), id)
	}
	if !ok {
		WriteError(w, http.StatusNotFound, "no result for %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// reply answers v with code (no body when v is nil), or a backend's
// error with the status it carries.
func reply(w http.ResponseWriter, code int, v any, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case err != nil:
		code = http.StatusInternalServerError
	case v == nil:
		w.WriteHeader(code)
		return
	default:
		WriteJSON(w, code, v)
		return
	}
	WriteError(w, code, "%v", err)
}

func (a *API) createSession(w http.ResponseWriter, r *http.Request) {
	if a.b.Refuse() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SessionCreateReq
	if err := DecodeJSON(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	key, err := req.Spec.Key()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := a.b.CreateSession(r.Context(), req, key, traceIDFromRequest(r, obs.SessionTraceID(key)))
	reply(w, http.StatusCreated, resp, err)
}

func (a *API) feedSession(w http.ResponseWriter, r *http.Request) {
	var req SessionFeedReq
	if err := DecodeJSON(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad feed request: %v", err)
		return
	}
	resp, err := a.b.FeedSession(r.Context(), r.PathValue("id"), req)
	reply(w, http.StatusOK, resp, err)
}

func (a *API) sessionStats(w http.ResponseWriter, r *http.Request) {
	resp, err := a.b.SessionStats(r.Context(), r.PathValue("id"))
	reply(w, http.StatusOK, resp, err)
}

func (a *API) deleteSession(w http.ResponseWriter, r *http.Request) {
	reply(w, http.StatusNoContent, nil, a.b.DeleteSession(r.Context(), r.PathValue("id")))
}

// traceSlice answers this process's slice of a trace. An unknown trace
// answers 200 with zero events, not 404: a shard that never saw the job
// legitimately has an empty slice, and the collector must not treat that
// as a failed shard.
func (a *API) traceSlice(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	hops := a.b.Hops()
	WriteJSON(w, http.StatusOK, TraceSlice{Proc: hops.Proc(), Trace: id, Events: hops.Slice(id)})
}

// clusterTrace merges the backend's slices of a trace into one Chrome
// trace; ?volatile=0 keeps only the deterministic hops.
func (a *API) clusterTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "bad trace id %q", id)
		return
	}
	merged := obs.MergeHops(a.b.TraceSlices(r.Context(), id), r.URL.Query().Get("volatile") != "0")
	w.Header().Set("Content-Type", "application/json")
	obs.WriteHopTrace(w, merged) // an error here is a gone client: headers are sent
}

func (a *API) slo(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, a.b.SLO(r.Context()))
}

// metrics renders the Prometheus text exposition v0.0.4 over the obs
// registry plus the backend's instantaneous gauges. Every family is
// sorted by name and no timestamps are emitted, so equal registry states
// expose equal bytes. ?volatile=0 narrows to the deterministic subset
// (counters and histograms only), the form golden tests pin.
func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	opts := telemetry.PromOptions{IncludeVolatile: r.URL.Query().Get("volatile") != "0"}
	if opts.IncludeVolatile {
		opts.Gauges = a.b.Gauges()
	}
	telemetry.WriteProm(w, opts) // an error here is a gone client
}

func (a *API) health(w http.ResponseWriter, r *http.Request) {
	if a.b.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

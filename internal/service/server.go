package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/telemetry"
)

// Config sizes a Server. Zero values select the defaults noted inline.
type Config struct {
	StoreDir      string // result store root (required)
	StoreMaxBytes int64  // store budget (default 1 GiB)
	// Workers is the number of jobs in flight at once, and the width of
	// the work-stealing shard pool every job's cells and encode shards
	// run on (default 4). The pool is shared across jobs — that sharing
	// is what lets a light job's shards interleave with a heavy encode
	// already in flight.
	Workers  int
	QueueCap int // queued-job bound before 429 (default 64)
	// DefaultTimeout bounds a job whose spec carries no timeout
	// (default 2m). Specs may only tighten it, never exceed it.
	DefaultTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight and queued jobs
	// get this long to finish before the base context is cancelled and
	// they abort at the next task boundary (default 10s).
	DrainTimeout time.Duration
	// Obs, when non-nil, receives one span lane per worker plus the
	// service counters; /debug/trace exports it, and each traced job
	// gets its own session folded into /debug/profile afterwards. nil
	// disables tracing.
	Obs *obs.Session
	// SampleInterval is the telemetry sampler tick: every interval one
	// gauge snapshot row lands in the ring-buffer series behind
	// /v1/telemetry/series. Zero disables sampling (the endpoint then
	// reports 404) — sampling is strictly read-only, so results are
	// byte-identical either way.
	SampleInterval time.Duration
	// SeriesCap bounds the ring buffer (default 1024 samples).
	SeriesCap int
	// ShardName identifies this daemon in a vcgate cluster; it is
	// echoed by GET /v1/registry so router probes can confirm they
	// reached the shard they meant to (default "vcprofd").
	ShardName string
	// HopTraces bounds the distributed-tracing hop log: how many trace
	// ids this daemon retains hop events for, FIFO-evicted (default
	// 512). Hop tracing is always on — emission is two map ops per
	// lifecycle edge, far off the encode path.
	HopTraces int
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueCap < 1 {
		c.QueueCap = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.SeriesCap < 1 {
		c.SeriesCap = 1024
	}
	if c.ShardName == "" {
		c.ShardName = "vcprofd"
	}
	if c.HopTraces < 1 {
		c.HopTraces = 512
	}
}

// Server is the vcprofd core: admission control, the job table, the
// worker pool and the result store, behind a plain http.Handler so the
// transport (real listener in cmd/vcprofd, httptest in the lifecycle
// tests) stays outside.
type Server struct {
	cfg      Config
	store    *Store
	q        *queue
	jobs     *jobTable
	board    *traceBoard
	tele     *teleBoard
	sessions *sessionTable
	hops     *obs.HopLog
	pool     *sched.Pool // shared shard scheduler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	draining   atomic.Bool

	samplerStop chan struct{}
	samplerOnce sync.Once
	samplerWG   sync.WaitGroup
}

// NewServer opens the store and builds a stopped server; Start launches
// the workers. The base context — parent of every job — is derived from
// ctx, so cancelling ctx hard-stops all computation.
func NewServer(ctx context.Context, cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("service: Config.StoreDir is required")
	}
	store, err := OpenStore(cfg.StoreDir, cfg.StoreMaxBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		store:       store,
		q:           newQueue(cfg.QueueCap),
		jobs:        newJobTable(),
		board:       newTraceBoard(cfg.Obs, cfg.Workers),
		sessions:    newSessionTable(),
		hops:        obs.NewHopLog(cfg.ShardName, cfg.HopTraces),
		samplerStop: make(chan struct{}),
	}
	s.pool = sched.NewPool(sched.Config{Workers: cfg.Workers, Observer: s.board.shardObserver()})
	s.tele = newTeleBoard(s, cfg.SeriesCap)
	s.baseCtx, s.baseCancel = context.WithCancel(ctx)
	return s, nil
}

// Start launches the worker pool and, when configured, the telemetry
// sampler.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if s.cfg.SampleInterval > 0 {
		s.samplerWG.Add(1)
		go s.sampleLoop()
	}
}

// sampleLoop appends one gauge row per tick until shutdown. It lives
// outside the worker WaitGroup: the drain waits for jobs, not for the
// sampler, which stops via its own channel the moment Shutdown begins.
func (s *Server) sampleLoop() {
	defer s.samplerWG.Done()
	t := time.NewTicker(s.cfg.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.samplerStop:
			return
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.tele.series.Sample(now.UnixMilli())
		}
	}
}

func (s *Server) stopSampler() {
	s.samplerOnce.Do(func() { close(s.samplerStop) })
	s.samplerWG.Wait()
}

// Store exposes the result store (read-side: tests and vcprofd stats).
func (s *Server) Store() *Store { return s.store }

// Shutdown drains the server: admission stops (new submissions get
// 503), queued and in-flight jobs get until ctx's deadline to finish,
// then the base context is cancelled and stragglers abort at their next
// task boundary. The store index is flushed last, so a warm restart
// resumes with the same LRU order. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopSampler()
	s.q.close()
	// Live sessions stop admitting feeds now; ones already accepted
	// finish their in-flight GOPs before the pool closes.
	s.sessions.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.sessions.wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Out of patience: abort in-flight jobs and wait for the pool
		// to notice (task boundaries are fine-grained, so this is fast).
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// Streams still open after the drain barrier were cut short by
	// shutdown, not end-of-stream; their traces record the fact so a
	// merged cluster view shows where each stream stopped and why.
	for _, trace := range s.sessions.openTraces() {
		s.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopDrainFinish,
			StartMS: time.Now().UnixMilli()})
	}
	// After the worker WaitGroup drains no job can submit new graphs;
	// Close waits for the pool's standing workers to exit.
	s.pool.Close()
	if ferr := s.store.Flush(); err == nil {
		err = ferr
	}
	return err
}

// SchedStats snapshots the shard pool's scheduling counters.
func (s *Server) SchedStats() sched.Stats { return s.pool.Stats() }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/frames", s.handleSessionFeed)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleSessionStats)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleAbandon)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("HEAD /v1/results/{id}", s.handleResultHead)
	mux.HandleFunc("PUT /v1/results/{id}", s.handleResultPut)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /v1/jobs/{id}/topdown", s.handleJobTopdown)
	mux.HandleFunc("GET /v1/telemetry/topdown", s.handleTopdown)
	mux.HandleFunc("GET /v1/telemetry/series", s.handleSeries)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceSlice)
	mux.HandleFunc("GET /v1/cluster/trace/{id}", s.handleClusterTrace)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/profile", s.handleProfile)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obsJobsRefused.Add(1)
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
	if s.store.Contains(key) {
		obsJobsCached.Add(1)
		WriteJSON(w, http.StatusOK, JobStatus{ID: key, Status: StateDone, Cached: true})
		return
	}
	j, state, joined := s.jobs.getOrAdd(spec, key, TraceIDFromRequest(r, obs.JobTraceID(key)))
	if joined {
		// Singleflight: this submission rides the identical in-flight
		// job; one computation will satisfy both.
		obsJobsDeduped.Add(1)
		WriteJSON(w, http.StatusAccepted, JobStatus{ID: key, Status: state})
		return
	}
	if err := s.q.push(j); err != nil {
		s.jobs.finish(j, "") // never queued: untracked, and a twin that joined meanwhile is woken
		switch err {
		case ErrSaturated:
			obsJobsRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "queue saturated (%d queued)", s.q.depth())
		default:
			obsJobsRefused.Add(1)
			WriteError(w, http.StatusServiceUnavailable, "server is draining")
		}
		return
	}
	obsJobsSubmitted.Add(1)
	obsQueuePeak.Max(uint64(s.q.depth()))
	// Deterministic admission hop: the fact the job was admitted is
	// content-derived, so the tuple merges clean across topologies.
	s.hops.Emit(obs.HopEvent{Trace: j.traceID, Kind: obs.HopAdmitted})
	WriteJSON(w, http.StatusAccepted, JobStatus{ID: key, Status: StateQueued})
}

// MaxWait caps the ?wait= a lifecycle GET may ask for; a longer wait is
// served as this one.
const MaxWait = time.Minute

// AwaitTerminal serves the wait parameter of GET /v1/jobs/{id} and GET
// /v1/results/{id}, on a daemon and on a gate: it parks the request
// until the job doneOf names is terminal, the wait (at most MaxWait)
// has passed or the client has gone, and the handler then answers
// exactly what it would answer a plain GET at that instant. An id with
// no queued or running job (doneOf answers nil) and wait=0 never park.
// It reports false once it has refused a malformed or negative wait
// with 400. Handlers call it only when the request has a query, so a
// plain GET pays nothing for it.
func AwaitTerminal(w http.ResponseWriter, r *http.Request, doneOf func(id string) <-chan struct{}) bool {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return true
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		WriteError(w, http.StatusBadRequest, "bad wait %q (want a duration such as 10s)", v)
		return false
	}
	done := doneOf(r.PathValue("id"))
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

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" && !AwaitTerminal(w, r, s.jobs.doneOf) {
		return
	}
	id := r.PathValue("id")
	if state, errMsg, ok := s.jobs.status(id); ok {
		WriteJSON(w, http.StatusOK, JobStatus{ID: id, Status: state, Error: errMsg})
		return
	}
	if s.store.Contains(id) {
		WriteJSON(w, http.StatusOK, JobStatus{ID: id, Status: StateDone, Cached: true})
		return
	}
	WriteError(w, http.StatusNotFound, "unknown job %q", id)
}

// handleAbandon gives back the interest one accepted submit holds in a
// queued or running job; the job is cancelled once no submitter is left
// (jobTable.release). 404 means there was nothing to give back: the id
// is unknown or its job already finished.
func (s *Server) handleAbandon(w http.ResponseWriter, r *http.Request) {
	if id := r.PathValue("id"); !s.jobs.release(id) {
		WriteError(w, http.StatusNotFound, "no queued or running job %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawQuery != "" && !AwaitTerminal(w, r, s.jobs.doneOf) {
		return
	}
	id := r.PathValue("id")
	data, ok, err := s.store.Get(id)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return
	}
	if state, errMsg, ok := s.jobs.status(id); ok {
		if state == StateFailed {
			WriteJSON(w, http.StatusInternalServerError, JobStatus{ID: id, Status: state, Error: errMsg})
			return
		}
		// Known but not finished: ask again.
		WriteJSON(w, http.StatusConflict, JobStatus{ID: id, Status: state})
		return
	}
	WriteError(w, http.StatusNotFound, "no result for %q", id)
}

// handleResultHead is the router's ownership-hint probe: 200 when this
// shard's store holds the result, 404 otherwise, no body either way. A
// gate uses it to warm-route and to answer status queries for jobs it
// never drove itself.
func (s *Server) handleResultHead(w http.ResponseWriter, r *http.Request) {
	obsOwnerProbes.Add(1)
	if s.store.Contains(r.PathValue("id")) {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusNotFound)
}

// isResultKey reports whether id has the canonical content-address
// shape: 64 lowercase hex characters (a JobSpec.Key).
func isResultKey(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleResultPut accepts a replica write: a gate pushing completed
// result bytes to this shard so a future routed job finds them warm.
// Keys are content addresses, so re-putting an existing key is a no-op
// and concurrent identical puts converge on the same bytes — the write
// is idempotent by construction.
func (s *Server) handleResultPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obsJobsRefused.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := r.PathValue("id")
	if !isResultKey(id) {
		WriteError(w, http.StatusBadRequest, "bad result key %q (want 64 hex chars)", id)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxResultBytes))
	if err != nil {
		WriteError(w, http.StatusRequestEntityTooLarge, "replica body: %v", err)
		return
	}
	if len(data) == 0 {
		WriteError(w, http.StatusBadRequest, "empty replica body")
		return
	}
	if err := s.store.Put(id, data); err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	obsReplicaPuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleRegistry is the lightweight shard-registry protocol: one
// document naming the shard, its lifecycle state, and enough occupancy
// detail for a router to probe health and reason about capacity.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if s.draining.Load() {
		state = "draining"
	}
	st := s.store.Stats()
	WriteJSON(w, http.StatusOK, RegistryInfo{
		Name:         s.cfg.ShardName,
		State:        state,
		StoreObjects: st.Objects,
		StoreBytes:   st.Bytes,
		QueueDepth:   s.q.depth(),
	})
}

// handleMetrics renders the Prometheus text exposition v0.0.4 over the
// obs registry plus the server's instantaneous gauges (including SLO
// quantiles from the latency histograms). Every family is sorted by
// name and no timestamps are emitted, so equal registry/store states
// expose equal bytes — across worker counts and warm restarts alike.
// ?volatile=0 narrows to the deterministic subset (counters and
// histograms only), the form golden tests pin.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	opts := telemetry.PromOptions{IncludeVolatile: r.URL.Query().Get("volatile") != "0"}
	if opts.IncludeVolatile {
		opts.Gauges = s.gaugeSamples()
	}
	if err := telemetry.WriteProm(w, opts); err != nil {
		return
	}
}

// handleJobTopdown streams the per-job top-down: while the job runs,
// fractions come from the producers' provisional mid-run snapshots;
// after completion they settle to the committed totals.
func (s *Server) handleJobTopdown(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	acc, ok := s.tele.findJobAcc(id)
	if !ok {
		WriteError(w, http.StatusNotFound,
			"no telemetry for job %q (never executed here: unknown, cached at submit, or evicted)", id)
		return
	}
	wire := topdownOf(acc.Snapshot())
	wire.ID = id
	wire.State = s.jobState(id)
	WriteJSON(w, http.StatusOK, wire)
}

// jobState reports a job's lifecycle state for telemetry responses.
func (s *Server) jobState(id string) string {
	if state, _, ok := s.jobs.status(id); ok {
		return state
	}
	if s.store.Contains(id) {
		return StateDone
	}
	return "unknown"
}

// handleTopdown serves the process-wide aggregate: every job's
// committed slots plus all in-flight producers.
func (s *Server) handleTopdown(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, topdownOf(s.tele.agg.Snapshot()))
}

// handleSeries serves the last ?window= samples of the ring-buffer
// time series (all of them by default), oldest first.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SampleInterval <= 0 {
		WriteError(w, http.StatusNotFound, "telemetry sampling disabled (start vcprofd with -sample)")
		return
	}
	n := 0
	if v := r.URL.Query().Get("window"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			WriteError(w, http.StatusBadRequest, "bad window %q", v)
			return
		}
		n = p
	}
	WriteJSON(w, http.StatusOK, s.tele.series.Window(n))
}

// handleProfile serves the continuous self-profile accumulated from
// the worker lanes plus every adopted per-job session: the flat
// aligned table by default, flamegraph.pl folded-stack lines with
// ?fold=1. Spans advance on the virtual-tick clock, so the profile
// needs no wall-clock sampler and is exact, not statistical.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !s.board.enabled() {
		WriteError(w, http.StatusNotFound, "tracing disabled (start vcprofd with -trace)")
		return
	}
	fold := r.URL.Query().Get("fold") == "1"
	topN := 30
	if v := r.URL.Query().Get("top"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
		topN = p
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.board.writeProfile(w, fold, topN); err != nil {
		return
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.board.enabled() {
		WriteError(w, http.StatusNotFound, "tracing disabled (start vcprofd with -trace)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.board.export(w); err != nil {
		// Too late for a status change; the body is already partial.
		return
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

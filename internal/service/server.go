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
	// the shard pool every job's cells and encode shards run on
	// (default 4). The pool is shared across jobs — that sharing is
	// what lets a light job's shards interleave with a heavy encode
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
	// ShardName identifies this daemon behind a gate; it is
	// echoed by GET /v1/registry so router probes can confirm they
	// reached the shard they meant to (default "vcprofd").
	ShardName string
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
	if c.ShardName == "" {
		c.ShardName = "vcprofd"
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
	api      *API // the shared handlers and the job table
	board    *traceBoard
	tele     *teleBoard
	sessions *sessionTable
	hops     *obs.HopLog
	pool     *sched.Pool // shared shard scheduler

	baseCtx     context.Context
	baseCancel  context.CancelFunc
	wg          sync.WaitGroup
	draining    atomic.Bool
	stopSampler func() // set by Start when sampling is on
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
		cfg:      cfg,
		store:    store,
		q:        newQueue(cfg.QueueCap),
		board:    newTraceBoard(cfg.Obs, cfg.Workers),
		sessions: newSessionTable(),
		hops:     obs.NewHopLog(cfg.ShardName, obs.HopLogTraces),
	}
	s.api = NewAPI(s)
	s.pool = sched.NewPool(sched.Config{Workers: cfg.Workers, Observer: s.board.shardObserver()})
	s.tele = newTeleBoard(s)
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
		// One gauge row per tick until shutdown. The sampler is not part
		// of the drain: it stops the moment Shutdown begins.
		s.stopSampler = Every(s.baseCtx, s.cfg.SampleInterval, func(now time.Time) {
			s.tele.series.Sample(now.UnixMilli())
		})
	}
}

// Store exposes the result store (read-side: tests and vcprofd stats).
func (s *Server) Store() *Store { return s.store }

// Inflight counts the queued and running jobs, Sessions the open live
// sessions: what a client that has gone may still hold here.
func (s *Server) Inflight() int { return s.api.Inflight() }
func (s *Server) Sessions() int { return s.sessions.len() }

// Shutdown drains the server: admission stops (new submissions get
// 503), queued and in-flight jobs get until ctx's deadline to finish,
// then the base context is cancelled and stragglers abort at their next
// task boundary. The store index is flushed last, so a warm restart
// resumes with the same LRU order. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.stopSampler != nil {
		s.stopSampler()
	}
	s.q.close()
	// Live sessions stop admitting feeds now; ones already accepted
	// finish their in-flight GOPs before the pool closes. Out of
	// patience, in-flight jobs abort at their next (fine-grained) task
	// boundary.
	s.sessions.close()
	err := Drain(ctx, func() { s.wg.Wait(); s.sessions.wait() }, s.baseCancel)
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

// Handler returns the HTTP surface: the shared job and session API over
// the local engine, plus the daemon's own routes — the shard protocol a
// gate speaks (HEAD/PUT results, the registry), streaming telemetry and
// the self-profile.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.api.Mount(mux)
	mux.HandleFunc("HEAD /v1/results/{id}", s.handleResultHead)
	mux.HandleFunc("PUT /v1/results/{id}", s.handleResultPut)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /v1/jobs/{id}/topdown", s.handleJobTopdown)
	mux.HandleFunc("GET /v1/telemetry/topdown", s.handleTopdown)
	mux.HandleFunc("GET /v1/telemetry/series", s.handleSeries)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/profile", s.handleProfile)
	return mux
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Refuse turns new work away while draining, counting each refusal.
func (s *Server) Refuse() bool {
	if !s.draining.Load() {
		return false
	}
	obsJobsRefused.Add(1)
	return true
}

// Cached answers a submit from the store, counting the hit.
func (s *Server) Cached(key string) bool {
	if !s.store.Contains(key) {
		return false
	}
	obsJobsCached.Add(1)
	return true
}

// Has reports whether the store holds id.
func (s *Server) Has(_ context.Context, id string) bool { return s.store.Contains(id) }

// Result reads id's bytes from the store.
func (s *Server) Result(id string) ([]byte, bool, error) { return s.store.Get(id) }

// FetchThrough finds nothing: no process stands behind a daemon.
func (s *Server) FetchThrough(context.Context, string) ([]byte, bool) { return nil, false }

// Run queues an admitted job for the workers.
func (s *Server) Run(j *Job) error {
	if err := s.q.push(j); err != nil {
		if err == ErrSaturated {
			obsJobsRejected.Add(1)
			return fmt.Errorf("queue %w (%d queued)", ErrSaturated, s.q.depth())
		}
		obsJobsRefused.Add(1)
		return err
	}
	obsJobsSubmitted.Add(1)
	obsQueuePeak.Max(uint64(s.q.depth()))
	// Deterministic admission hop: the fact the job was admitted is
	// content-derived, so the tuple merges clean across topologies.
	s.hops.Emit(obs.HopEvent{Trace: j.traceID, Kind: obs.HopAdmitted})
	return nil
}

// Joined counts a submit that rode an in-flight twin.
func (s *Server) Joined() { obsJobsDeduped.Add(1) }

// Hops is the daemon's bounded hop log (internal/obs/hop.go).
func (s *Server) Hops() *obs.HopLog { return s.hops }

// TraceSlices is the daemon's own slice alone: the degenerate one-slice
// merge answers exactly what a gate assembles for a one-shard cluster,
// which is what the topology equivalence tests pin.
func (s *Server) TraceSlices(_ context.Context, id string) [][]obs.HopEvent {
	return [][]obs.HopEvent{s.hops.Slice(id)}
}

// SLO reads the live-session report off the registry.
func (s *Server) SLO(context.Context) telemetry.SLOReport { return telemetry.SLOFromRegistry() }

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
	if s.Refuse() {
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
	if state, _, ok := s.api.jobs.status(id); ok {
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

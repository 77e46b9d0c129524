package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/memo"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// Router drives content-addressed jobs across the shard set: one
// in-flight drive per key (cluster-level singleflight), candidate
// shards chosen warm-first then by ring ownership, hedged after a
// quantile-derived delay, failed over with backoff, and — with R>1 —
// completed bytes pushed to the other owners so a later primary death
// still leaves the result warm somewhere.
type Router struct {
	cfg      Config
	ring     *Ring
	reg      *registry
	client   service.Doer
	sessions *gateSessionTable
	hops     *obs.HopLog

	baseCtx    context.Context
	baseCancel context.CancelFunc

	st routerState

	n gateCounters

	probeStop chan struct{}
	probeOnce sync.Once
	probeWG   sync.WaitGroup
	wg        sync.WaitGroup // drives + replication pushes
}

// routerState is the router's mutable routing state; every field is
// guarded by mu (the struct carries nothing else, so the lockheld
// convention — mutex siblings are guarded — reads literally).
type routerState struct {
	mu       sync.Mutex
	drives   map[string]*drive         // queued and running drives
	failed   *memo.LRU[string, string] // key → error of the latest failed drives, oldest dropped first
	warm     *memo.LRU[string, string] // key → shard that last served it: a hint, so losing one costs a ring lookup
	results  *memo.LRU[string, []byte] // completed result bodies, one unit each
	inflight int
	draining bool
}

// gateCounters are the router's aggregate routing statistics. All
// volatile by nature: they follow health, scheduling and wall-clock,
// never result bytes.
type gateCounters struct {
	routes, warmHits, fallbacks     atomic.Uint64
	hedgesLaunched, hedgesWon       atomic.Uint64
	failovers, retries429           atomic.Uint64
	replicasPushed, replicasFailed  atomic.Uint64
	probeDown, probeUp              atomic.Uint64
	rejected, refused, drivesFailed atomic.Uint64
}

// drive is one in-flight routed job. state changes, and done is closed
// (exactly once, when runDrive takes the drive out of the table), only
// under routerState.mu.
type drive struct {
	key     string
	trace   string // hop-trace id, derived from the key at submit
	payload []byte
	state   string
	done    chan struct{}
}

// maxFailedDrives bounds how many failed drives stay readable, and
// warmHintsPerResult sizes the warm-hint table from the result cache: a
// hint is a shard name where a cached result is a whole body.
const (
	maxFailedDrives    = 1024
	warmHintsPerResult = 16
)

// NewRouter builds a stopped router; Start launches the health prober.
// The base context — parent of every drive — derives from ctx, so
// cancelling ctx hard-stops all routing.
func NewRouter(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: Config.Shards is empty")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	names := make([]string, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs both name and URL (got %+v)", s)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		names = append(names, s.Name)
	}
	cfg.fill()
	if cfg.Client == nil {
		// Every in-flight drive holds one standing request on its shard,
		// so the idle pool is as deep as the drive bound; the default
		// transport's two per host would redial for every drive past the
		// second. No overall client timeout: per-drive contexts bound
		// every request, and a single deadline here would cap job runtime.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.MaxInflight
		tr.MaxIdleConns = cfg.MaxInflight * len(cfg.Shards)
		cfg.Client = &http.Client{Transport: tr}
	}
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(names, cfg.VNodes),
		reg:      newRegistry(cfg.Shards),
		client:   cfg.Client,
		sessions: newGateSessionTable(),
		hops:     obs.NewHopLog("gate", cfg.HopTraces),
		st: routerState{
			drives:  make(map[string]*drive),
			failed:  memo.NewLRU[string, string](maxFailedDrives, nil),
			warm:    memo.NewLRU[string, string](int64(warmHintsPerResult*cfg.ResultCacheEntries), nil),
			results: memo.NewLRU[string, []byte](int64(cfg.ResultCacheEntries), nil),
		},
		probeStop: make(chan struct{}),
	}
	r.baseCtx, r.baseCancel = context.WithCancel(ctx)
	return r, nil
}

// Start launches the health prober (when configured).
func (r *Router) Start() {
	if r.cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
}

func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-r.baseCtx.Done():
			return
		case <-t.C:
			r.ProbeNow()
		}
	}
}

// ProbeNow runs one probe round over every shard, in sorted-name
// order. Exported so tests (and a prober-less router) can converge
// health state deterministically.
func (r *Router) ProbeNow() {
	timeout := 500 * time.Millisecond
	if r.cfg.ProbeInterval > 0 && r.cfg.ProbeInterval < timeout {
		timeout = r.cfg.ProbeInterval
	}
	for _, name := range r.reg.names() {
		sh, wasAlive, ok := r.reg.lookup(name)
		if !ok {
			continue
		}
		// Probes hang off the base context, so a hard stop cancels one
		// in flight.
		ctx, cancel := context.WithTimeout(r.baseCtx, timeout)
		info, err := r.shardClient(sh).Registry(ctx)
		cancel()
		if err != nil || info.State != "serving" {
			r.reg.observeFailure(name, r.cfg.ProbeFails)
			if wasAlive && !r.reg.isAlive(name) {
				r.n.probeDown.Add(1)
			}
		} else {
			r.reg.observeSuccess(name)
			if !wasAlive {
				r.n.probeUp.Add(1)
			}
		}
	}
}

// shardClient is the wire-protocol client for one shard.
func (r *Router) shardClient(sh Shard) service.Client {
	return service.Client{Base: sh.URL, HTTP: r.client}
}

// askShards is the one read-side fan-out: for each named shard, in
// order, look it up, ask it, and hand the answer to use — skipping
// shards the registry does not know, ones marked down when liveOnly is
// set, and ones whose call fails. use returning true stops the walk.
func askShards[T any](r *Router, names []string, liveOnly bool,
	ask func(service.Client) (T, error), use func(name string, v T) (done bool)) {
	for _, name := range names {
		sh, alive, ok := r.reg.lookup(name)
		if !ok || (liveOnly && !alive) {
			continue
		}
		v, err := ask(r.shardClient(sh))
		if err != nil {
			continue
		}
		if use(name, v) {
			return
		}
	}
}

func (r *Router) stopProber() {
	r.probeOnce.Do(func() { close(r.probeStop) })
	r.probeWG.Wait()
}

// Shutdown drains the router: new submissions get 503, in-flight
// drives get until ctx's deadline to finish, then the base context is
// cancelled and they abort. Safe to call more than once.
func (r *Router) Shutdown(ctx context.Context) error {
	r.st.mu.Lock()
	r.st.draining = true
	r.st.mu.Unlock()
	r.stopProber()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.baseCancel()
		<-done
	}
	r.baseCancel()
	// Every drive has returned its connection; nothing will reuse them.
	if c, ok := r.client.(*http.Client); ok {
		c.CloseIdleConnections()
	}
	return err
}

// Submit routes one normalized, validated spec: cluster-level
// singleflight per key, bounded in-flight drives. It returns the job
// id plus an HTTP-shaped (status string, code) mirroring vcprofd's
// submit semantics, so gate clients are daemon clients.
func (r *Router) Submit(spec *service.JobSpec) (id, state string, code int, err error) {
	key := spec.Key()
	payload, merr := json.Marshal(spec)
	if merr != nil {
		return key, "", http.StatusBadRequest, merr
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if r.st.draining {
		r.n.refused.Add(1)
		return key, "", http.StatusServiceUnavailable, errors.New("gate is draining")
	}
	if _, ok := r.st.results.Get(key); ok {
		return key, service.StateDone, http.StatusOK, nil
	}
	if d, ok := r.st.drives[key]; ok {
		return key, d.state, http.StatusAccepted, nil
	}
	if r.st.inflight >= r.cfg.MaxInflight {
		r.n.rejected.Add(1)
		return key, "", http.StatusTooManyRequests,
			fmt.Errorf("gate saturated (%d drives in flight)", r.st.inflight)
	}
	// A failed drive is replaced by a fresh attempt (mirrors vcprofd's
	// job table).
	r.st.failed.Remove(key)
	d := &drive{key: key, trace: obs.JobTraceID(key), payload: payload,
		state: service.StateQueued, done: make(chan struct{})}
	r.st.drives[key] = d
	r.st.inflight++
	r.wg.Add(1)
	go r.runDrive(d)
	return key, service.StateQueued, http.StatusAccepted, nil
}

// Status reports a routed job's lifecycle state.
func (r *Router) Status(id string) (state, errMsg string, cached, ok bool) {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if d, ok := r.st.drives[id]; ok {
		return d.state, "", false, true
	}
	if errMsg, ok := r.st.failed.Peek(id); ok {
		return service.StateFailed, errMsg, false, true
	}
	if _, ok := r.st.results.Get(id); ok {
		return service.StateDone, "", true, true
	}
	return "", "", false, false
}

// driveDone returns the channel closed when id's queued or running
// drive turns terminal, nil when there is none to wait for.
func (r *Router) driveDone(id string) <-chan struct{} {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if d, ok := r.st.drives[id]; ok {
		return d.done
	}
	return nil
}

// CachedResult returns a completed job's bytes from the gate cache.
func (r *Router) CachedResult(id string) ([]byte, bool) {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	return r.st.results.Get(id)
}

// FetchThrough serves a result the gate no longer holds by proxying
// the owners (warm hint first); a hit refills the gate cache and warm
// map. ctx is the caller's request context.
func (r *Router) FetchThrough(ctx context.Context, id string) (body []byte, ok bool) {
	askShards(r, r.candidateList(id), false,
		func(c service.Client) ([]byte, error) { return c.Result(ctx, id) },
		func(name string, got []byte) bool {
			r.st.mu.Lock()
			r.st.results.Put(id, got, 1)
			r.st.warm.Put(id, name, 1)
			r.st.mu.Unlock()
			body, ok = got, true
			return true
		})
	return body, ok
}

// runDrive owns one key's routed lifecycle end to end.
func (r *Router) runDrive(d *drive) {
	defer r.wg.Done()
	ctx, cancel := context.WithTimeout(r.baseCtx, r.cfg.DriveTimeout)
	defer cancel()
	out, err := r.race(ctx, d)

	r.st.mu.Lock()
	r.st.inflight--
	delete(r.st.drives, d.key)
	close(d.done)
	if err != nil {
		r.n.drivesFailed.Add(1)
		// The error stays readable until the key is resubmitted or
		// maxFailedDrives newer failures displace it.
		r.st.failed.Put(d.key, err.Error(), 1)
		r.st.mu.Unlock()
		return
	}
	r.st.results.Put(d.key, out.body, 1) // the result cache answers later requests
	r.st.warm.Put(d.key, out.shard, 1)
	r.st.mu.Unlock()

	r.n.routes.Add(1)
	if out.warm {
		r.n.warmHits.Add(1)
	}
	if out.hedge {
		r.n.hedgesWon.Add(1)
		r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopHedgeWinner,
			Arg: out.shard, StartMS: time.Now().UnixMilli()})
	}
	// Where the job landed is a routing fact — volatile. What the job
	// computed is content: the gate mirrors the admitted/exec hops from
	// client-visible facts (the key, the result size), so the merged
	// deterministic view survives even when the serving shard is killed
	// before its slice can be collected. A surviving shard's own hops
	// carry identical tuples and dedup to one.
	r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopRoute,
		Arg: out.shard, StartMS: time.Now().UnixMilli()})
	r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopAdmitted})
	r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopExec,
		Arg: obs.ShortKey(d.key), Dur: uint64(len(out.body))})
	r.reg.observeWin(out.shard, out.warm)
	if r.cfg.Replicas > 1 {
		r.replicate(d.key, d.trace, out.shard, out.body)
	}
}

// attemptOut is one shard attempt's outcome.
type attemptOut struct {
	shard string
	body  []byte
	warm  bool // the submit found the result already stored (warm route)
	hedge bool
	err   error
}

// race runs the hedged, failing-over attempt tournament for one drive:
// a primary attempt, one hedge after the quantile-derived delay, and a
// fresh candidate with doubled backoff each time an attempt dies.
// First success wins; the shared context cancellation aborts every
// loser's standing request, the loser's Drive tells its shard to abandon
// the job on its way out, and the WaitGroup join guarantees no attempt
// goroutine outlives the race.
func (r *Router) race(ctx context.Context, d *drive) (attemptOut, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	maxLaunches := r.cfg.MaxAttempts + 1 // failover chain plus one hedge slot
	results := make(chan attemptOut, maxLaunches)
	tried := make(map[string]bool, maxLaunches)
	var wg sync.WaitGroup
	defer wg.Wait()

	active, launched := 0, 0
	launch := func(hedge bool) (string, bool) {
		name, ok := r.nextCandidate(d.key, tried)
		if !ok {
			return "", false
		}
		tried[name] = true
		launched++
		active++
		if hedge {
			r.n.hedgesLaunched.Add(1)
			r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopHedgeFired,
				Arg: name, StartMS: time.Now().UnixMilli()})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- r.attempt(ctx, name, d, hedge)
		}()
		return name, true
	}

	primary, ok := launch(false)
	if !ok {
		return attemptOut{}, errors.New("no live shard for key " + d.key)
	}
	hedgeTimer := time.NewTimer(r.hedgeDelay(primary))
	defer hedgeTimer.Stop()
	hedged := false
	backoff := r.cfg.RetryBackoff
	var firstErr error

	for active > 0 {
		select {
		case <-ctx.Done():
			return attemptOut{}, ctx.Err()
		case <-hedgeTimer.C:
			if !hedged && launched < maxLaunches {
				if _, ok := launch(true); ok {
					hedged = true
				}
			}
		case out := <-results:
			active--
			if out.err == nil {
				// Cancel the losers explicitly before returning: the
				// deferred wg.Wait runs before the deferred cancel (LIFO),
				// so without this a losing hedge would run its job to
				// completion — doubling shard work — before the race could
				// return the answer it already has.
				cancel()
				wg.Wait()
				for active > 0 {
					lost := <-results
					active--
					if lost.err != nil {
						r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopHedgeLoser,
							Arg: lost.shard, StartMS: time.Now().UnixMilli()})
					}
				}
				return out, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			r.reg.observeFailure(out.shard, r.cfg.ProbeFails)
			if launched < maxLaunches {
				if err := service.SleepCtx(ctx, backoff); err != nil {
					return attemptOut{}, err
				}
				backoff *= 2
				if name, ok := launch(false); ok {
					r.n.failovers.Add(1)
					r.hops.Emit(obs.HopEvent{Trace: d.trace, Kind: obs.HopFailover,
						Arg: name, StartMS: time.Now().UnixMilli()})
				}
			}
		}
	}
	return attemptOut{}, fmt.Errorf("all %d attempts failed; first: %w", launched, firstErr)
}

// nextCandidate picks the best untried shard for a key: the warm hint,
// then the ring owners in replica order, then any live shard in
// sorted-name order (counted as a fallback route), then — probe lag's
// last resort — any untried shard at all.
func (r *Router) nextCandidate(key string, tried map[string]bool) (string, bool) {
	r.st.mu.Lock()
	hint, _ := r.st.warm.Get(key)
	r.st.mu.Unlock()
	if hint != "" && !tried[hint] && r.reg.isAlive(hint) {
		return hint, true
	}
	for _, o := range r.ring.Owners(key, r.cfg.Replicas) {
		if !tried[o] && r.reg.isAlive(o) {
			return o, true
		}
	}
	for _, n := range r.reg.aliveNames() {
		if !tried[n] {
			r.n.fallbacks.Add(1)
			return n, true
		}
	}
	for _, n := range r.reg.names() {
		if !tried[n] {
			return n, true
		}
	}
	return "", false
}

// candidateList is nextCandidate's order as a full list, for read-side
// proxying (FetchThrough).
func (r *Router) candidateList(key string) []string {
	tried := make(map[string]bool)
	var out []string
	for {
		n, ok := r.nextCandidate(key, tried)
		if !ok {
			return out
		}
		tried[n] = true
		out = append(out, n)
	}
}

// hedgeDelay derives the hedge trigger from the primary shard's served
// latency quantile, clamped to [HedgeMin, HedgeMax]; a shard without
// enough observations hedges at HedgeMax (late) rather than doubling
// work on a cold cluster.
func (r *Router) hedgeDelay(shard string) time.Duration {
	snap := shardHist(shard).Snapshot()
	if snap.Count < uint64(r.cfg.HedgeAfter) {
		return r.cfg.HedgeMax
	}
	d := time.Duration(snap.Quantile(r.cfg.HedgeQuantile)) * time.Millisecond
	if d < r.cfg.HedgeMin {
		d = r.cfg.HedgeMin
	}
	if d > r.cfg.HedgeMax {
		d = r.cfg.HedgeMax
	}
	return d
}

// attempt runs one shard attempt and observes its served latency.
func (r *Router) attempt(ctx context.Context, name string, d *drive, hedge bool) attemptOut {
	sh, _, ok := r.reg.lookup(name)
	if !ok {
		return attemptOut{shard: name, hedge: hedge, err: fmt.Errorf("unknown shard %q", name)}
	}
	t0 := time.Now()
	// No in-place reconnects: a transport error fails the attempt and
	// the race fails over to another shard. A warm route is a submit
	// answered from the shard's store — the signal the cluster smoke
	// asserts on.
	body, ds, err := r.shardClient(sh).Drive(ctx, d.key, d.payload, service.DriveOpts{
		Trace:    d.trace,
		Accepted: func() { r.setRunning(d) },
	})
	r.n.retries429.Add(uint64(ds.Retries429))
	if err != nil {
		return attemptOut{shard: name, hedge: hedge, err: fmt.Errorf("shard %s: %w", name, err)}
	}
	shardHist(name).Observe(uint64(time.Since(t0).Milliseconds()))
	r.reg.observeSuccess(name)
	return attemptOut{shard: name, body: body, warm: ds.Cached, hedge: hedge}
}

func (r *Router) setRunning(d *drive) {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if d.state == service.StateQueued {
		d.state = service.StateRunning
	}
}

// replicate pushes completed bytes to the key's other live owners so a
// later primary death still finds the result warm. Content addressing
// makes the push idempotent: a re-put of an existing key is a no-op on
// the shard, so retries and races can never duplicate side effects.
func (r *Router) replicate(key, trace, serving string, body []byte) {
	for _, o := range r.ring.Owners(key, r.cfg.Replicas) {
		if o == serving || !r.reg.isAlive(o) {
			continue
		}
		sh, _, ok := r.reg.lookup(o)
		if !ok {
			continue
		}
		r.wg.Add(1)
		go func(name string, c service.Client) {
			defer r.wg.Done()
			ctx, cancel := context.WithTimeout(r.baseCtx, 10*time.Second)
			defer cancel()
			if err := c.PutResult(ctx, key, body); err != nil {
				r.n.replicasFailed.Add(1)
				return
			}
			r.n.replicasPushed.Add(1)
			r.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopReplicaPush,
				Arg: name, StartMS: time.Now().UnixMilli()})
		}(o, r.shardClient(sh))
	}
}

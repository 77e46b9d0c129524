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

// Router is the gate's backend behind the shared service API: it drives
// content-addressed jobs across the shard set — one in-flight drive per
// key (the API's job table is the cluster-level singleflight), candidate
// shards chosen warm-first then by ring ownership, hedged after a
// quantile-derived delay, failed over with backoff, and, with R>1,
// completed bytes pushed to the other owners so a later primary death
// still leaves the result warm somewhere.
type Router struct {
	cfg      Config
	ring     *Ring
	reg      *registry
	client   service.Doer
	api      *service.API // the shared handlers; its job table holds the drives
	sessions *gateSessionTable
	hops     *obs.HopLog

	baseCtx    context.Context
	baseCancel context.CancelFunc

	st routerState

	n gateCounters

	stopProber func()         // set by Start when probing is on
	wg         sync.WaitGroup // drives + replication pushes
}

// routerState is the router's mutable routing state; every field is
// guarded by mu (the struct carries nothing else, so the lockheld
// convention — mutex siblings are guarded — reads literally).
type routerState struct {
	mu       sync.Mutex
	warm     *memo.LRU[string, string] // key → shard that last served it: a hint, so losing one costs a ring lookup
	results  *memo.LRU[string, []byte] // completed result bodies, one unit each
	draining bool
}

// gateCounters are the router's aggregate routing statistics. All
// volatile by nature: they follow health, scheduling and wall-clock,
// never result bytes.
type gateCounters struct {
	routes, warmHits, fallbacks    atomic.Uint64
	hedgesLaunched, hedgesWon      atomic.Uint64
	failovers, retries429          atomic.Uint64
	replicasPushed, replicasFailed atomic.Uint64
	probeDown, probeUp             atomic.Uint64
	rejected, drivesFailed         atomic.Uint64
}

// warmHintsPerResult sizes the warm-hint table from the result cache: a
// hint is a shard name where a cached result is a whole body.
const warmHintsPerResult = 16

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
		ring:     NewRing(names, vnodes),
		reg:      newRegistry(cfg.Shards),
		client:   cfg.Client,
		sessions: newGateSessionTable(),
		hops:     obs.NewHopLog("gate", obs.HopLogTraces),
		st: routerState{
			warm:    memo.NewLRU[string, string](int64(warmHintsPerResult*cfg.ResultCacheEntries), nil),
			results: memo.NewLRU[string, []byte](int64(cfg.ResultCacheEntries), nil),
		},
	}
	r.api = service.NewAPI(r)
	r.baseCtx, r.baseCancel = context.WithCancel(ctx)
	return r, nil
}

// Start launches the health prober (when configured).
func (r *Router) Start() {
	if r.cfg.ProbeInterval > 0 {
		r.stopProber = service.Every(r.baseCtx, r.cfg.ProbeInterval, func(time.Time) { r.ProbeNow() })
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

// Shutdown drains the router: new submissions get 503, in-flight
// drives get until ctx's deadline to finish, then the base context is
// cancelled and they abort. Safe to call more than once.
func (r *Router) Shutdown(ctx context.Context) error {
	r.st.mu.Lock()
	r.st.draining = true
	r.st.mu.Unlock()
	if r.stopProber != nil {
		r.stopProber()
	}
	err := service.Drain(ctx, r.wg.Wait, r.baseCancel)
	// Every drive has returned its connection; nothing will reuse them.
	if c, ok := r.client.(*http.Client); ok {
		c.CloseIdleConnections()
	}
	return err
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

// Run starts the drive of a job the API has just admitted, unless the
// gate is draining or MaxInflight drives are running already (the
// table's count includes j).
func (r *Router) Run(j *service.Job) error {
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if r.st.draining {
		return service.ErrClosed
	}
	if n := r.api.Inflight() - 1; n >= r.cfg.MaxInflight {
		r.n.rejected.Add(1)
		return fmt.Errorf("gate %w (%d drives in flight)", service.ErrSaturated, n)
	}
	r.wg.Add(1)
	go r.runDrive(j)
	return nil
}

// Joined counts nothing: the gate keeps no dedup counter.
func (r *Router) Joined() {}

// runDrive owns one job's routed lifecycle end to end.
func (r *Router) runDrive(j *service.Job) {
	defer r.wg.Done()
	ctx, cancel := context.WithTimeout(r.baseCtx, driveTimeout)
	defer cancel()
	if !j.Start(cancel) {
		return // every submitter withdrew before the drive began
	}
	out, err := r.race(ctx, j)
	if err != nil {
		r.n.drivesFailed.Add(1)
		j.Finish(err.Error())
		return
	}
	key, trace := j.Key(), j.Trace()
	r.n.routes.Add(1)
	if out.warm {
		r.n.warmHits.Add(1)
	}
	if out.hedge {
		r.n.hedgesWon.Add(1)
		r.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopHedgeWinner,
			Arg: out.shard, StartMS: time.Now().UnixMilli()})
	}
	// Where the job landed is a routing fact — volatile. What the job
	// computed is content: the gate mirrors the admitted/exec hops from
	// client-visible facts (the key, the result size), so the merged
	// deterministic view survives even when the serving shard is killed
	// before its slice can be collected. A surviving shard's own hops
	// carry identical tuples and dedup to one.
	r.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopRoute,
		Arg: out.shard, StartMS: time.Now().UnixMilli()})
	r.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopAdmitted})
	r.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopExec,
		Arg: obs.ShortKey(key), Dur: uint64(len(out.body))})
	r.reg.observeWin(out.shard, out.warm)
	// The result cache answers later requests. It holds the bytes, and
	// the counters and hops above are in, before Finish wakes the waiters.
	r.st.mu.Lock()
	r.st.results.Put(key, out.body, 1)
	r.st.warm.Put(key, out.shard, 1)
	r.st.mu.Unlock()
	j.Finish("")
	if r.cfg.Replicas > 1 {
		r.replicate(key, trace, out.shard, out.body)
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
func (r *Router) race(ctx context.Context, j *service.Job) (attemptOut, error) {
	payload, err := json.Marshal(j.Spec())
	if err != nil {
		return attemptOut{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	maxLaunches := len(r.cfg.Shards) + 1 // failover chain plus one hedge slot
	results := make(chan attemptOut, maxLaunches)
	tried := make(map[string]bool, maxLaunches)
	var wg sync.WaitGroup
	defer wg.Wait()

	active, launched := 0, 0
	launch := func(hedge bool) (string, bool) {
		name, ok := r.nextCandidate(j.Key(), tried)
		if !ok {
			return "", false
		}
		tried[name] = true
		launched++
		active++
		if hedge {
			r.n.hedgesLaunched.Add(1)
			r.hops.Emit(obs.HopEvent{Trace: j.Trace(), Kind: obs.HopHedgeFired,
				Arg: name, StartMS: time.Now().UnixMilli()})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- r.attempt(ctx, name, j.Key(), j.Trace(), payload, hedge)
		}()
		return name, true
	}

	primary, ok := launch(false)
	if !ok {
		return attemptOut{}, errors.New("no live shard for key " + j.Key())
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
						r.hops.Emit(obs.HopEvent{Trace: j.Trace(), Kind: obs.HopHedgeLoser,
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
					r.hops.Emit(obs.HopEvent{Trace: j.Trace(), Kind: obs.HopFailover,
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
	d := time.Duration(snap.Quantile(hedgeQuantile)) * time.Millisecond
	return min(max(d, r.cfg.HedgeMin), r.cfg.HedgeMax)
}

// attempt runs one shard attempt and observes its served latency.
func (r *Router) attempt(ctx context.Context, name, key, trace string, payload []byte, hedge bool) attemptOut {
	sh, _, ok := r.reg.lookup(name)
	if !ok {
		return attemptOut{shard: name, hedge: hedge, err: fmt.Errorf("unknown shard %q", name)}
	}
	t0 := time.Now()
	// No in-place reconnects: a transport error fails the attempt and
	// the race fails over to another shard. A warm route is a submit
	// answered from the shard's store — the signal the cluster smoke
	// asserts on.
	body, ds, err := r.shardClient(sh).Drive(ctx, key, payload, service.DriveOpts{Trace: trace})
	r.n.retries429.Add(uint64(ds.Retries429))
	if err != nil {
		return attemptOut{shard: name, hedge: hedge, err: fmt.Errorf("shard %s: %w", name, err)}
	}
	shardHist(name).Observe(uint64(time.Since(t0).Milliseconds()))
	r.reg.observeSuccess(name)
	return attemptOut{shard: name, body: body, warm: ds.Cached, hedge: hedge}
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

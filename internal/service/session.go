package service

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// maxSessions bounds concurrently open live sessions per daemon; a
// session frees its slot at end-of-stream or DELETE.
const maxSessions = 64

// sessionEntry is one open live session. The entry mutex serializes
// feeds (and the per-session trace lane, which obs requires to be
// single-goroutine); the engine has its own lock, but the entry-level
// one keeps wire responses — which pair engine results with stats and
// resume tokens — atomic per feed.
type sessionEntry struct {
	id    string
	trace string // propagated hop-trace id, fixed at open
	mu    sync.Mutex
	s     *live.Session
	sess  *obs.Session // per-session span lane; nil when tracing is off
	lane  *obs.Trace
}

// sessionTable owns the open sessions and the drain gate: once closed,
// new sessions and new feeds are refused, and wait blocks until every
// in-flight feed — meaning every in-flight GOP encode — has finished.
// That is the graceful-drain contract: frames already fed encode to
// completion, nothing is cut mid-GOP.
type sessionTable struct {
	mu     sync.Mutex
	seq    uint64
	m      map[string]*sessionEntry
	closed bool
	wg     sync.WaitGroup
}

func newSessionTable() *sessionTable {
	return &sessionTable{m: make(map[string]*sessionEntry)}
}

// add registers a new session under a fresh id. The id is a routing
// handle (spec-key prefix + per-daemon sequence), deliberately opaque:
// it appears in no digest, so resuming a session elsewhere under a new
// id changes nothing the client folds.
func (t *sessionTable) add(key string, s *live.Session, traced bool, trace string) (*sessionEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("draining")
	}
	if len(t.m) >= maxSessions {
		return nil, fmt.Errorf("session table full (%d open)", maxSessions)
	}
	t.seq++
	id := fmt.Sprintf("%.16s-%04x", key, t.seq)
	var sess *obs.Session
	var lane *obs.Trace
	if traced {
		sess = obs.NewSession()
		lane = sess.Lane("session-" + id)
	}
	e := &sessionEntry{id: id, trace: trace, s: s, sess: sess, lane: lane}
	t.m[id] = e
	return e, nil
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// openTraces snapshots the hop-trace ids of sessions still open, sorted
// — the drain path emits their drain-finish hops after wait returns.
// Entry locks are taken after the table's is released: a feed holds
// its entry's lock while it takes the table's.
func (t *sessionTable) openTraces() []string {
	t.mu.Lock()
	open := maps.Clone(t.m)
	t.mu.Unlock()
	traces := make([]string, 0, len(open))
	for _, e := range open {
		e.mu.Lock()
		traces = append(traces, e.trace)
		e.mu.Unlock()
	}
	slices.Sort(traces)
	return traces
}

func (t *sessionTable) get(id string) (*sessionEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[id]
	return e, ok
}

// beginFeed pins an in-flight feed against drain; endFeed releases it.
func (t *sessionTable) beginFeed(id string) (*sessionEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("draining")
	}
	e, ok := t.m[id]
	if !ok {
		return nil, nil
	}
	t.wg.Add(1)
	return e, nil
}

func (t *sessionTable) endFeed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wg.Done()
}

func (t *sessionTable) remove(id string) (*sessionEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[id]
	if ok {
		delete(t.m, id)
	}
	return e, ok
}

// close refuses further sessions and feeds; wait blocks until every
// in-flight feed has finished, so every GOP whose frames were accepted
// is fully encoded before shutdown proceeds.
func (t *sessionTable) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// wait takes the WaitGroup's address under the lock, then blocks
// outside it so in-flight feeds can release their pins.
func (t *sessionTable) wait() {
	t.mu.Lock()
	wg := &t.wg
	t.mu.Unlock()
	wg.Wait()
}

// sloOfStats projects one session's cumulative stats onto the SLO
// report shape, so a stats poll shows this stream's burn rates with
// the same math the process-wide /v1/slo uses.
func sloOfStats(st live.Stats) telemetry.SLOReport {
	r := telemetry.SLOReport{
		Sessions: 1,
		Frames:   uint64(st.Fed),
		GOPs:     uint64(st.GOPs),
		Dropped:  uint64(st.Dropped),
		Misses:   uint64(st.Misses),
		Degrades: uint64(st.DegradeTotal),
	}
	return r.WithBurn()
}

// CreateSession opens a live session on the shared pool, or with
// req.Resume re-creates one from a GOP-boundary token.
func (s *Server) CreateSession(_ context.Context, req SessionCreateReq, key, trace string) (SessionCreateResp, error) {
	cfg := live.Config{Pool: s.pool}
	var sess *live.Session
	var err error
	if req.Resume != nil {
		sess, err = live.Resume(req.Spec, cfg, *req.Resume)
	} else {
		sess, err = live.New(req.Spec, cfg)
	}
	if err != nil {
		return SessionCreateResp{}, Errorf(http.StatusBadRequest, "%v", err)
	}
	e, err := s.sessions.add(key, sess, s.cfg.Obs != nil, trace)
	if err != nil {
		obsJobsRefused.Add(1)
		return SessionCreateResp{}, Errorf(http.StatusServiceUnavailable, "%v", err)
	}
	obsSessionsOpened.Add(1)
	if req.Resume != nil {
		// A resume is a placement fact (which process picked the stream
		// back up, and where in it): volatile, stamped by the caller.
		s.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopSessionResume,
			Seq: uint64(req.Resume.StartFrame), StartMS: time.Now().UnixMilli()})
	} else {
		// Opening is content-derived — every topology opens the same
		// stream exactly once — so it lands in the deterministic view.
		s.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopSessionOpen, Arg: obs.ShortKey(key)})
	}
	e.mu.Lock()
	id := e.id
	e.mu.Unlock()
	return SessionCreateResp{ID: id, Key: key, Resumed: req.Resume != nil, Spec: sess.Spec()}, nil
}

// FeedSession advances a session's arrival watermark and encodes the
// GOPs it completes. The encodes run under the server's base context,
// not the request's: a graceful drain lets them finish, a hard shutdown
// cancels them at the next task boundary.
func (s *Server) FeedSession(_ context.Context, id string, req SessionFeedReq) (SessionFeedResp, error) {
	e, err := s.sessions.beginFeed(id)
	if err != nil {
		obsJobsRefused.Add(1)
		return SessionFeedResp{}, Errorf(http.StatusServiceUnavailable, "server is draining")
	}
	if e == nil {
		return SessionFeedResp{}, Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	defer s.sessions.endFeed()
	trace := e.trace

	e.mu.Lock()
	defer e.mu.Unlock()
	delta := req.Fed - e.s.Stats().Fed
	if delta < 0 {
		delta = 0 // replayed watermark: arrivals never rewind
	}
	gops, err := e.s.Feed(s.baseCtx, delta, req.EOS)
	if err != nil {
		return SessionFeedResp{}, err
	}
	for i := range gops {
		gops[i].Bitstreams = nil
		obsSessionGOPs.Add(1)
		if e.lane != nil {
			sp := e.lane.BeginArg(obsSessionGOPName, fmt.Sprintf("gop-%d", gops[i].Index))
			e.lane.Advance(1 + gops[i].Insts)
			sp.End()
		}
		// GOP hops are pure content: index, digest prefix and modeled
		// instruction count are identical wherever the GOP encodes, so a
		// resumed session's hops merge seamlessly with the original's.
		s.hops.Emit(obs.HopEvent{Trace: trace, Kind: obs.HopGOP,
			Seq: uint64(gops[i].Index), Arg: obs.ShortKey(gops[i].Digest), Dur: gops[i].Insts})
	}
	st := e.s.Stats()
	resp := SessionFeedResp{ID: id, GOPs: gops, Stats: st, Resume: e.s.ResumeToken()}
	if st.Done {
		if _, ok := s.sessions.remove(id); ok && e.sess != nil {
			// The session is over; its lane is immutable from here on and
			// joins the daemon profile like a finished job's.
			s.board.adopt(e.sess)
		}
		obsSessionsClosed.Add(1)
	}
	return resp, nil
}

// SessionStats reads a session's cumulative stats and SLO burn.
func (s *Server) SessionStats(_ context.Context, id string) (SessionStatsResp, error) {
	e, ok := s.sessions.get(id)
	if !ok {
		return SessionStatsResp{}, Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.s.Stats()
	return SessionStatsResp{ID: id, Spec: e.s.Spec(), Stats: st, SLO: sloOfStats(st)}, nil
}

// DeleteSession closes a session and frees its slot.
func (s *Server) DeleteSession(_ context.Context, id string) error {
	e, ok := s.sessions.remove(id)
	if !ok {
		return Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sess != nil {
		s.board.adopt(e.sess)
	}
	obsSessionsClosed.Add(1)
	return nil
}

var obsSessionGOPName = obs.Name("session/gop")

// Live-session service counters. Opened/closed and GOP counts follow
// the request mix (deterministic for a fixed drive); the refused path
// reuses svc.jobs.refused like every other 503.
var (
	obsSessionsOpened = obs.NewCounter("svc.sessions.opened")
	obsSessionsClosed = obs.NewCounter("svc.sessions.closed")
	obsSessionGOPs    = obs.NewCounter("svc.sessions.gops")
)

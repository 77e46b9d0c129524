package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// Live-session routing. Jobs are stateless and content-addressed, so
// any shard can serve any attempt; sessions carry encoder state, so the
// gate pins each session to one shard (sticky by session id over the
// same consistent-hash ring) and forwards feeds there. When the pinned
// shard dies mid-stream, the gate re-anchors: it re-creates the session
// on the next ring candidate from the last resume token it holds — a
// GOP-boundary snapshot of the modeled timeline — and replays the
// arrival watermark. Tokens resume byte-identically and the watermark
// protocol is idempotent, so a mid-stream failover changes which shard
// encodes the remaining GOPs but not one byte of what the client folds.

// gateSession is one routed live session.
type gateSession struct {
	id       string // gate-facing id; also the ring key for stickiness
	trace    string // hop-trace id, derived from the spec key at create
	mu       sync.Mutex
	spec     live.SessionSpec
	shard    string // pinned shard name
	remoteID string // shard-side session id
	fed      int    // highest arrival watermark accepted from the client
	lastGOP  int    // next GOP index the client has not yet received
	resume   live.ResumeToken
	done     bool
}

// gateSessionTable owns the gate's routed sessions.
type gateSessionTable struct {
	mu  sync.Mutex
	seq uint64
	m   map[string]*gateSession

	failovers atomic.Uint64
	opened    atomic.Uint64
}

func newGateSessionTable() *gateSessionTable {
	return &gateSessionTable{m: make(map[string]*gateSession)}
}

func (r *Router) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	r.st.mu.Lock()
	draining := r.st.draining
	r.st.mu.Unlock()
	if draining {
		service.WriteError(w, http.StatusServiceUnavailable, "gate is draining")
		return
	}
	var body service.SessionCreateReq
	if err := service.DecodeJSON(w, req, &body); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad session spec: %v", err)
		return
	}
	if body.Resume != nil {
		service.WriteError(w, http.StatusBadRequest, "resume tokens are gate-internal; create a fresh session")
		return
	}
	key, err := body.Spec.Key()
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.sessions.mu.Lock()
	r.sessions.seq++
	gs := &gateSession{id: fmt.Sprintf("%.16s-g%04x", key, r.sessions.seq),
		trace: service.TraceIDFromRequest(req, obs.SessionTraceID(key)), spec: body.Spec}
	r.sessions.m[gs.id] = gs
	r.sessions.mu.Unlock()

	gs.mu.Lock()
	defer gs.mu.Unlock()
	created, err := r.anchorSessionLocked(req.Context(), gs, nil)
	if err != nil {
		r.sessions.mu.Lock()
		delete(r.sessions.m, gs.id)
		r.sessions.mu.Unlock()
		service.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	r.sessions.opened.Add(1)
	// Mirror the deterministic open hop from the spec key (the shard
	// emits the identical tuple; a later kill cannot erase the fact the
	// stream opened) and record the volatile anchor placement.
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopSessionOpen, Arg: obs.ShortKey(key)})
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopRoute,
		Arg: gs.shard, StartMS: time.Now().UnixMilli()})
	service.WriteJSON(w, http.StatusCreated, service.SessionCreateResp{
		ID: gs.id, Key: key, Spec: created.Spec, Shard: gs.shard, Trace: gs.trace,
	})
}

// anchorSessionLocked creates (or, with a token, re-creates) gs on the best
// untried live shard, walking the sticky candidate order. Caller holds
// gs.mu.
func (r *Router) anchorSessionLocked(ctx context.Context, gs *gateSession, tok *live.ResumeToken) (service.SessionCreateResp, error) {
	tried := map[string]bool{}
	var firstErr error
	for {
		name, ok := r.nextCandidate(gs.id, tried)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("no live shard for session %s", gs.id)
			}
			return service.SessionCreateResp{}, firstErr
		}
		tried[name] = true
		sh, _, ok := r.reg.lookup(name)
		if !ok {
			continue
		}
		created, err := r.shardClient(sh).CreateSession(ctx, service.SessionCreateReq{Spec: gs.spec, Resume: tok}, gs.trace)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			r.reg.observeFailure(name, r.cfg.ProbeFails)
			continue
		}
		r.reg.observeSuccess(name)
		gs.shard = name
		gs.remoteID = created.ID
		return created, nil
	}
}

func (r *Router) handleSessionFeed(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.sessions.mu.Lock()
	gs, ok := r.sessions.m[id]
	r.sessions.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	var body service.SessionFeedReq
	if err := service.DecodeJSON(w, req, &body); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad feed request: %v", err)
		return
	}

	gs.mu.Lock()
	defer gs.mu.Unlock()
	if body.Fed > gs.fed {
		gs.fed = body.Fed
	}
	feedOnce := func() (service.SessionFeedResp, error) {
		sh, alive, ok := r.reg.lookup(gs.shard)
		if !ok || !alive {
			return service.SessionFeedResp{}, fmt.Errorf("shard %s down", gs.shard)
		}
		return r.shardClient(sh).FeedSession(req.Context(), gs.remoteID,
			service.SessionFeedReq{Fed: gs.fed, EOS: body.EOS}, gs.trace)
	}

	resp, err := feedOnce()
	if err != nil {
		// The pinned shard failed mid-stream: re-anchor from the last
		// GOP-boundary token and replay the watermark. The resumed
		// engine re-encodes exactly the GOPs the client has not seen.
		r.reg.observeFailure(gs.shard, r.cfg.ProbeFails)
		r.sessions.failovers.Add(1)
		tok := gs.resume
		if _, aerr := r.anchorSessionLocked(req.Context(), gs, &tok); aerr != nil {
			service.WriteError(w, http.StatusBadGateway, "session failover: %v (after %v)", aerr, err)
			return
		}
		// The re-anchor hop names the new shard and carries the token's
		// GOP index — where in the stream the encode picked back up.
		r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopReAnchor,
			Seq: uint64(tok.GOP), Arg: gs.shard, StartMS: time.Now().UnixMilli()})
		resp, err = feedOnce()
		if err != nil {
			service.WriteError(w, http.StatusBadGateway, "session feed after failover: %v", err)
			return
		}
	}

	// Track progress and de-duplicate: a re-anchored shard can only
	// re-encode from the token's GOP, so anything below the client's
	// floor is a replay and must not be returned twice.
	out := resp.GOPs[:0]
	for _, g := range resp.GOPs {
		if g.Index < gs.lastGOP {
			continue
		}
		out = append(out, g)
		gs.lastGOP = g.Index + 1
		// Mirror each first-delivery GOP as a deterministic hop: index,
		// digest prefix and modeled cost are content, identical no matter
		// which shard (original or re-anchored) encoded it.
		r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopGOP,
			Seq: uint64(g.Index), Arg: obs.ShortKey(g.Digest), Dur: g.Insts})
	}
	resp.GOPs = out
	gs.resume = resp.Resume
	gs.done = resp.Stats.Done
	if gs.done {
		r.sessions.mu.Lock()
		delete(r.sessions.m, id)
		r.sessions.mu.Unlock()
	}
	resp.ID = id
	service.WriteJSON(w, http.StatusOK, resp)
}

func (r *Router) handleSessionStats(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.sessions.mu.Lock()
	gs, ok := r.sessions.m[id]
	r.sessions.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	gs.mu.Lock()
	shard, remoteID := gs.shard, gs.remoteID
	gs.mu.Unlock()
	sh, _, ok := r.reg.lookup(shard)
	if !ok {
		service.WriteError(w, http.StatusBadGateway, "shard %s unknown", shard)
		return
	}
	stats, err := r.shardClient(sh).SessionStats(req.Context(), remoteID)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	service.WriteJSON(w, http.StatusOK, stats)
}

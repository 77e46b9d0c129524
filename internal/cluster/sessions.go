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

// CreateSession opens a routed session on the best live shard. Resume
// tokens stay gate-internal: a client resumes nothing here, the gate
// re-anchors for it.
func (r *Router) CreateSession(ctx context.Context, req service.SessionCreateReq, key, trace string) (service.SessionCreateResp, error) {
	if req.Resume != nil {
		return service.SessionCreateResp{}, service.Errorf(http.StatusBadRequest, "resume tokens are gate-internal; create a fresh session")
	}
	r.sessions.mu.Lock()
	r.sessions.seq++
	gs := &gateSession{id: fmt.Sprintf("%.16s-g%04x", key, r.sessions.seq), trace: trace, spec: req.Spec}
	r.sessions.m[gs.id] = gs
	r.sessions.mu.Unlock()

	gs.mu.Lock()
	defer gs.mu.Unlock()
	created, err := r.anchorSessionLocked(ctx, gs, nil)
	if err != nil {
		r.dropSession(gs.id)
		return service.SessionCreateResp{}, service.Errorf(http.StatusBadGateway, "%v", err)
	}
	r.sessions.opened.Add(1)
	// Mirror the deterministic open hop from the spec key (the shard
	// emits the identical tuple; a later kill cannot erase the fact the
	// stream opened) and record the volatile anchor placement.
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopSessionOpen, Arg: obs.ShortKey(key)})
	r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopRoute,
		Arg: gs.shard, StartMS: time.Now().UnixMilli()})
	return service.SessionCreateResp{
		ID: gs.id, Key: key, Spec: created.Spec, Shard: gs.shard, Trace: gs.trace,
	}, nil
}

// session looks a routed session up; dropSession forgets it and returns
// what it held.
func (r *Router) session(id string) (*gateSession, bool) {
	r.sessions.mu.Lock()
	defer r.sessions.mu.Unlock()
	gs, ok := r.sessions.m[id]
	return gs, ok
}

func (r *Router) dropSession(id string) (*gateSession, bool) {
	r.sessions.mu.Lock()
	defer r.sessions.mu.Unlock()
	gs, ok := r.sessions.m[id]
	delete(r.sessions.m, id)
	return gs, ok
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
		if err != nil && ctx.Err() != nil {
			return service.SessionCreateResp{}, err // the caller has gone, not the shard
		}
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

// FeedSession forwards a feed to the pinned shard, re-anchoring the
// session on the next candidate when that shard has died.
func (r *Router) FeedSession(ctx context.Context, id string, req service.SessionFeedReq) (service.SessionFeedResp, error) {
	gs, ok := r.session(id)
	if !ok {
		return service.SessionFeedResp{}, service.Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.done { // ended, or deleted, while this feed waited for it
		return service.SessionFeedResp{}, service.Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	if req.Fed > gs.fed {
		gs.fed = req.Fed
	}
	feedOnce := func() (service.SessionFeedResp, error) {
		sh, alive, ok := r.reg.lookup(gs.shard)
		if !ok || !alive {
			return service.SessionFeedResp{}, fmt.Errorf("shard %s down", gs.shard)
		}
		return r.shardClient(sh).FeedSession(ctx, gs.remoteID,
			service.SessionFeedReq{Fed: gs.fed, EOS: req.EOS}, gs.trace)
	}

	resp, err := feedOnce()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up, not the shard: leave its health, the
			// failover count and the session's pin alone.
			return service.SessionFeedResp{}, cerr
		}
		// The pinned shard failed mid-stream: re-anchor from the last
		// GOP-boundary token and replay the watermark. The resumed
		// engine re-encodes exactly the GOPs the client has not seen.
		r.reg.observeFailure(gs.shard, r.cfg.ProbeFails)
		r.sessions.failovers.Add(1)
		tok := gs.resume
		if _, aerr := r.anchorSessionLocked(ctx, gs, &tok); aerr != nil {
			return service.SessionFeedResp{}, service.Errorf(http.StatusBadGateway, "session failover: %v (after %v)", aerr, err)
		}
		// The re-anchor hop names the new shard and carries the token's
		// GOP index — where in the stream the encode picked back up.
		r.hops.Emit(obs.HopEvent{Trace: gs.trace, Kind: obs.HopReAnchor,
			Seq: uint64(tok.GOP), Arg: gs.shard, StartMS: time.Now().UnixMilli()})
		resp, err = feedOnce()
		if err != nil {
			return service.SessionFeedResp{}, service.Errorf(http.StatusBadGateway, "session feed after failover: %v", err)
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
		r.dropSession(id)
	}
	resp.ID = id
	return resp, nil
}

// SessionStats answers the pinned shard's stats document.
func (r *Router) SessionStats(ctx context.Context, id string) (service.SessionStatsResp, error) {
	gs, ok := r.session(id)
	if !ok {
		return service.SessionStatsResp{}, service.Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	gs.mu.Lock()
	shard, remoteID := gs.shard, gs.remoteID
	gs.mu.Unlock()
	sh, _, ok := r.reg.lookup(shard)
	if !ok {
		return service.SessionStatsResp{}, service.Errorf(http.StatusBadGateway, "shard %s unknown", shard)
	}
	stats, err := r.shardClient(sh).SessionStats(ctx, remoteID)
	if err != nil {
		return service.SessionStatsResp{}, service.Errorf(http.StatusBadGateway, "%v", err)
	}
	return stats, nil
}

// DeleteSession forgets a routed session and forwards the DELETE to its
// pinned shard, freeing the slot it holds there. The forward is best
// effort: a shard that is gone has freed the slot with everything else.
func (r *Router) DeleteSession(ctx context.Context, id string) error {
	gs, ok := r.dropSession(id)
	if !ok {
		return service.Errorf(http.StatusNotFound, "unknown session %q", id)
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	gs.done = true
	if sh, _, ok := r.reg.lookup(gs.shard); ok {
		r.shardClient(sh).DeleteSession(ctx, gs.remoteID)
	}
	return nil
}

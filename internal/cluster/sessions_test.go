package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vcprof/internal/cluster/chaos"
	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

func liveSessionSpec() live.SessionSpec {
	return live.SessionSpec{
		Clip: "game1", Frames: 24, Div: 8,
		Family: "svt-av1", CRF: 28, Preset: 8,
		GOP: 8, FPS: 30, Deadline: 16,
		Rungs: []int{36, 44}, Share: true,
	}
}

func gatePostJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: bad body (HTTP %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func foldSessionWire(t *testing.T, gops []live.GOPResult) string {
	t.Helper()
	var ds [][32]byte
	for _, g := range gops {
		b, err := hex.DecodeString(g.Digest)
		if err != nil || len(b) != 32 {
			t.Fatalf("bad wire digest %q", g.Digest)
		}
		var d [32]byte
		copy(d[:], b)
		ds = append(ds, d)
	}
	return obs.FoldDigest(ds)
}

// directSessionDigest runs the same spec in-process — the reference the
// routed run must match byte for byte.
func directSessionDigest(t *testing.T, spec live.SessionSpec) (string, live.Stats) {
	t.Helper()
	s, err := live.New(spec, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gops, err := s.Feed(context.Background(), spec.Frames, true)
	if err != nil {
		t.Fatal(err)
	}
	return foldSessionWire(t, gops), s.Stats()
}

// TestSessionStickyRouting drives a session through the gate's HTTP
// surface against healthy shards: all feeds land on one pinned shard
// and the folded digest equals the in-process run.
func TestSessionStickyRouting(t *testing.T) {
	spec := liveSessionSpec()
	want, wantStats := directSessionDigest(t, spec)
	set := newShardSet(t, 3)
	rt, client := newTestRouter(t, set, nil)
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()

	var created service.SessionCreateResp
	if code := gatePostJSON(t, client, gate.URL+"/v1/sessions", service.SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	rt.sessions.mu.Lock()
	pinned := rt.sessions.m[created.ID].shard
	rt.sessions.mu.Unlock()

	var gops []live.GOPResult
	var feed service.SessionFeedResp
	for _, req := range []service.SessionFeedReq{{Fed: 8}, {Fed: 16}, {Fed: 24, EOS: true}} {
		if code := gatePostJSON(t, client, gate.URL+"/v1/sessions/"+created.ID+"/frames", req, &feed); code != http.StatusOK {
			t.Fatalf("feed %+v: HTTP %d", req, code)
		}
		gops = append(gops, feed.GOPs...)
		rt.sessions.mu.Lock()
		gs := rt.sessions.m[created.ID]
		if gs != nil && gs.shard != pinned {
			t.Fatalf("session moved shards without a failure: %s -> %s", pinned, gs.shard)
		}
		rt.sessions.mu.Unlock()
	}
	if got := foldSessionWire(t, gops); got != want {
		t.Fatalf("routed digest %s != direct %s", got, want)
	}
	if feed.Stats.Misses != wantStats.Misses || !feed.Stats.Done {
		t.Fatalf("routed stats diverged: %+v vs %+v", feed.Stats, wantStats)
	}
	if n := rt.sessions.failovers.Load(); n != 0 {
		t.Fatalf("unexpected failovers: %d", n)
	}
}

// TestSessionFailoverReanchors kills the pinned shard mid-stream and
// checks the gate re-anchors on another shard at the next GOP boundary
// with zero client-visible divergence: same digests, no duplicated and
// no missing GOPs.
func TestSessionFailoverReanchors(t *testing.T) {
	spec := liveSessionSpec()
	want, _ := directSessionDigest(t, spec)
	set := newShardSet(t, 3)
	rt, client := newTestRouter(t, set, nil)
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()

	var created service.SessionCreateResp
	if code := gatePostJSON(t, client, gate.URL+"/v1/sessions", service.SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	rt.sessions.mu.Lock()
	pinned := rt.sessions.m[created.ID].shard
	rt.sessions.mu.Unlock()

	var gops []live.GOPResult
	var feed service.SessionFeedResp
	if code := gatePostJSON(t, client, gate.URL+"/v1/sessions/"+created.ID+"/frames", service.SessionFeedReq{Fed: 8}, &feed); code != http.StatusOK {
		t.Fatalf("feed 1: HTTP %d", code)
	}
	gops = append(gops, feed.GOPs...)

	// Kill the pinned shard: every later request to it gets a 503 from
	// the chaos injector, as if the daemon vanished.
	for i, sh := range set.shards {
		if sh.Name == pinned {
			set.injs[i].Kill()
		}
	}

	for _, req := range []service.SessionFeedReq{{Fed: 16}, {Fed: 24, EOS: true}} {
		if code := gatePostJSON(t, client, gate.URL+"/v1/sessions/"+created.ID+"/frames", req, &feed); code != http.StatusOK {
			t.Fatalf("feed %+v after kill: HTTP %d", req, code)
		}
		gops = append(gops, feed.GOPs...)
	}

	// No gaps, no duplicates: GOP indices must be exactly 0..N-1.
	for i, g := range gops {
		if g.Index != i {
			t.Fatalf("GOP sequence broken at %d: %+v", i, gops)
		}
	}
	if got := foldSessionWire(t, gops); got != want {
		t.Fatalf("failover digest %s != direct %s", got, want)
	}
	if n := rt.sessions.failovers.Load(); n == 0 {
		t.Fatalf("kill produced no failover")
	}
}

// TestSessionFeedCancelIsNotAFailover cancels a feed while the pinned
// shard holds it: the caller gets its own cancellation back, and the
// shard stays alive, the session stays pinned to it and no session
// failover is counted. The session then feeds to its end there.
func TestSessionFeedCancelIsNotAFailover(t *testing.T) {
	set := newShardSet(t, 3)
	rt, _ := newTestRouter(t, set, nil)
	created, err := rt.CreateSession(context.Background(), service.SessionCreateReq{Spec: liveSessionSpec()}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	rt.sessions.mu.Lock()
	pinned := rt.sessions.m[created.ID].shard
	rt.sessions.mu.Unlock()
	var inj *chaos.Injector
	for i, sh := range set.shards {
		if sh.Name == pinned {
			inj = set.injs[i]
		}
	}

	// Stall the pinned shard's next request, and cancel the feed once
	// that request is in the shard's handler. The shard serves the
	// stalled request after the stall; its reply has no reader.
	inj.StallNext(1, 250*time.Millisecond)
	served := inj.Served()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for inj.Served() == served {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := rt.FeedSession(ctx, created.ID, service.SessionFeedReq{Fed: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled feed returned %v, want context.Canceled", err)
	}
	if n := rt.sessions.failovers.Load(); n != 0 {
		t.Errorf("a cancelled feed counted %d session failovers, want 0", n)
	}
	if !rt.reg.isAlive(pinned) {
		t.Errorf("a cancelled feed took pinned shard %s out of the rotation", pinned)
	}
	rt.sessions.mu.Lock()
	now := rt.sessions.m[created.ID].shard
	rt.sessions.mu.Unlock()
	if now != pinned {
		t.Errorf("a cancelled feed moved the session from %s to %s", pinned, now)
	}

	resp, err := rt.FeedSession(context.Background(), created.ID, service.SessionFeedReq{Fed: 24, EOS: true})
	if err != nil {
		t.Fatalf("feed to the end after the cancelled one: %v", err)
	}
	if !resp.Stats.Done {
		t.Errorf("the session is not done after its last feed: %+v", resp.Stats)
	}
	if n := rt.sessions.failovers.Load(); n != 0 {
		t.Errorf("%d session failovers after the cancelled feed, want 0", n)
	}
}

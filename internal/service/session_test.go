package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"vcprof/internal/live"
	"vcprof/internal/obs"
)

func liveTestSpec() live.SessionSpec {
	return live.SessionSpec{
		Clip: "game1", Frames: 16, Div: 8,
		Family: "svt-av1", CRF: 28, Preset: 8,
		GOP: 8, FPS: 30, Deadline: 16,
		Rungs: []int{36, 44}, Share: true,
	}
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
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

func foldWire(t *testing.T, gops []live.GOPResult) string {
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

// TestSessionHTTPMatchesDirect drives a session over the HTTP surface
// and checks the wire digests and stats are byte-identical with an
// in-process engine run — transport must not touch outputs.
func TestSessionHTTPMatchesDirect(t *testing.T) {
	spec := liveTestSpec()
	direct, err := live.New(spec, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var directGOPs []live.GOPResult
	gs, err := direct.Feed(context.Background(), spec.Frames, true)
	if err != nil {
		t.Fatal(err)
	}
	directGOPs = append(directGOPs, gs...)

	_, hts := testServer(t, Config{Workers: 2}, true)
	var created SessionCreateResp
	if code := postJSON(t, hts.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}

	// Feed in two batches with a replayed watermark in between — the
	// replay must be a no-op, not a double-feed.
	var wire []live.GOPResult
	var feed SessionFeedResp
	for _, req := range []SessionFeedReq{{Fed: 8}, {Fed: 8}, {Fed: 16, EOS: true}} {
		if code := postJSON(t, hts.URL+"/v1/sessions/"+created.ID+"/frames", req, &feed); code != http.StatusOK {
			t.Fatalf("feed %+v: HTTP %d", req, code)
		}
		wire = append(wire, feed.GOPs...)
	}
	if got, want := foldWire(t, wire), foldWire(t, directGOPs); got != want {
		t.Fatalf("HTTP digest %s != direct %s", got, want)
	}
	if ds, ws := direct.Stats(), feed.Stats; ds.Misses != ws.Misses || ds.Insts != ws.Insts || ds.FinishTick != ws.FinishTick {
		t.Fatalf("stats diverged: direct=%+v wire=%+v", ds, ws)
	}
	if !feed.Stats.Done {
		t.Fatalf("session not done after eos: %+v", feed.Stats)
	}
	for _, g := range wire {
		if g.Bitstreams != nil {
			t.Fatalf("bitstreams leaked onto the wire")
		}
	}
	// The finished session is gone from the table.
	resp, err := http.Get(hts.URL + "/v1/sessions/" + created.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after eos: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSessionResumeOverHTTP re-anchors a half-fed session on a second
// daemon via the resume token and checks the combined digests equal a
// straight single-daemon run — the failover building block the gate
// leans on.
func TestSessionResumeOverHTTP(t *testing.T) {
	spec := liveTestSpec()
	_, hts1 := testServer(t, Config{Workers: 2}, true)
	_, hts2 := testServer(t, Config{Workers: 2}, true)

	var created SessionCreateResp
	postJSON(t, hts1.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &created)
	var feed SessionFeedResp
	if code := postJSON(t, hts1.URL+"/v1/sessions/"+created.ID+"/frames", SessionFeedReq{Fed: 8}, &feed); code != http.StatusOK {
		t.Fatalf("feed: HTTP %d", code)
	}
	gops := append([]live.GOPResult{}, feed.GOPs...)
	tok := feed.Resume

	// The token is client-supplied: a forged negative shed level is a
	// 400 at the door, not a slower-than-spec encode.
	forged := tok
	forged.Degrade = -3
	if code := postJSON(t, hts2.URL+"/v1/sessions", SessionCreateReq{Spec: spec, Resume: &forged}, nil); code != http.StatusBadRequest {
		t.Fatalf("resume with negative degrade: HTTP %d, want 400", code)
	}

	var created2 SessionCreateResp
	if code := postJSON(t, hts2.URL+"/v1/sessions", SessionCreateReq{Spec: spec, Resume: &tok}, &created2); code != http.StatusCreated {
		t.Fatalf("resume create: HTTP %d", code)
	}
	if !created2.Resumed {
		t.Fatalf("resume flag not echoed")
	}
	if code := postJSON(t, hts2.URL+"/v1/sessions/"+created2.ID+"/frames", SessionFeedReq{Fed: 16, EOS: true}, &feed); code != http.StatusOK {
		t.Fatalf("resumed feed: HTTP %d", code)
	}
	gops = append(gops, feed.GOPs...)

	direct, err := live.New(spec, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := direct.Feed(context.Background(), spec.Frames, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := foldWire(t, gops), foldWire(t, dg); got != want {
		t.Fatalf("resumed digest %s != straight %s", got, want)
	}
}

// TestSessionDrain checks the graceful-drain contract: shutdown refuses
// new feeds with 503 but the drained server has fully encoded
// everything it accepted (the session table empties through eos before
// Shutdown returns).
func TestSessionDrain(t *testing.T) {
	spec := liveTestSpec()
	spec.Frames = 8
	spec.Rungs = nil
	srv, hts := testServer(t, Config{Workers: 1}, true)

	var created SessionCreateResp
	postJSON(t, hts.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &created)
	var feed SessionFeedResp
	if code := postJSON(t, hts.URL+"/v1/sessions/"+created.ID+"/frames", SessionFeedReq{Fed: 8, EOS: true}, &feed); code != http.StatusOK {
		t.Fatalf("feed: HTTP %d", code)
	}
	if !feed.Stats.Done || feed.Stats.Encoded != 8 {
		t.Fatalf("feed incomplete before drain: %+v", feed.Stats)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Draining server refuses new sessions and feeds.
	if code := postJSON(t, hts.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &SessionCreateResp{}); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: HTTP %d, want 503", code)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// fakeShard is a scripted daemon for the Drive tests: it answers the
// first reject429 submits with 429, then accepts under submitID, and its
// result endpoint honours ?wait= the way a daemon does — it holds the
// fetch until serveDelay after the accept (then serves bytes), the wait
// runs out (409) or the client goes. result, when set, replaces that
// handler. Every request is counted, DELETEs are recorded, and held sums
// how long the result handler kept waiting fetches.
type fakeShard struct {
	submitID   string
	reject429  int
	serveDelay time.Duration
	result     http.HandlerFunc

	mu         sync.Mutex // handlers may run on different connections
	submits    int
	requests   int
	deleted    []string
	acceptedAt time.Time
	held       time.Duration
}

// seen reports the requests served and the ids DELETEd so far.
func (f *fakeShard) seen() (requests int, deleted []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, append([]string(nil), f.deleted...)
}

func (f *fakeShard) serve(t *testing.T) Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.submits++
		if f.submits <= f.reject429 {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "saturated")
			return
		}
		f.acceptedAt = time.Now()
		WriteJSON(w, http.StatusAccepted, JobStatus{ID: f.submitID, Status: StateQueued})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.deleted = append(f.deleted, r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/results/{id}", func(w http.ResponseWriter, r *http.Request) {
		if f.result != nil {
			f.result(w, r)
			return
		}
		wait, err := time.ParseDuration(r.URL.Query().Get("wait"))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "fake shard wants ?wait=: %v", err)
			return
		}
		f.mu.Lock()
		left := f.serveDelay - time.Since(f.acceptedAt)
		f.mu.Unlock()
		start := time.Now()
		if left > 0 {
			select {
			case <-time.After(min(left, wait)):
			case <-r.Context().Done():
			}
		}
		f.mu.Lock()
		f.held += time.Since(start)
		f.mu.Unlock()
		if left > wait {
			WriteJSON(w, http.StatusConflict, JobStatus{ID: r.PathValue("id"), Status: StateRunning})
			return
		}
		fmt.Fprint(w, `{"result":"bytes"}`)
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.requests++
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return Client{Base: srv.URL, HTTP: srv.Client()}
}

func drivePayload(t *testing.T) (key string, payload []byte) {
	t.Helper()
	spec := validEncodeSpec()
	spec.Normalize()
	payload, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Key(), payload
}

// TestDriveSplitsRetriesFromServedLatency is the regression test for
// the latency-conflation bug: under 429 retries, the reported served
// latency must cover only accepted-submit → result, while the retries
// land in their own counter. Before the split, three 429s added ~75ms
// of backoff sleep to the "latency" of a 30ms job.
func TestDriveSplitsRetriesFromServedLatency(t *testing.T) {
	key, payload := drivePayload(t)
	const rejects = 3
	const serveDelay = 30 * time.Millisecond
	f := &fakeShard{submitID: key, reject429: rejects, serveDelay: serveDelay}
	c := f.serve(t)

	body, ds, err := c.Drive(context.Background(), key, payload, DriveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || ds.Cached {
		t.Fatalf("body=%d bytes cached=%v, want bytes and not cached", len(body), ds.Cached)
	}
	if ds.Retries429 != rejects || ds.Reconnects != 0 {
		t.Fatalf("retries_429=%d reconnects=%d, want %d and 0", ds.Retries429, ds.Reconnects, rejects)
	}
	// The served clock must exclude the ~75ms of 429 backoff: it has
	// to cover the time the shard held the fetch, but stay well under
	// delay + backoffs. Held, not serveDelay, is the lower bound: the
	// shard's serveDelay clock starts before it writes the 202 and
	// Drive's after reading it, so a slow 202 may eat into serveDelay,
	// while the fetch the shard held sits wholly inside Drive's clock.
	f.mu.Lock()
	held := f.held
	f.mu.Unlock()
	if held <= 0 || ds.Served < held {
		t.Fatalf("served latency %v < %v the shard held the fetch — clock started too late", ds.Served, held)
	}
	if max := serveDelay + 2*rejects*25*time.Millisecond; ds.Served >= max {
		t.Fatalf("served latency %v >= %v — 429 backoff leaked into the served clock", ds.Served, max)
	}
}

// flakyDoer fails the first n requests at the transport level
// (connect-error shaped), then delegates.
type flakyDoer struct {
	fails int
	next  Doer
}

func (f *flakyDoer) Do(req *http.Request) (*http.Response, error) {
	if f.fails > 0 {
		f.fails--
		return nil, fmt.Errorf("dial tcp: connection refused (injected)")
	}
	return f.next.Do(req)
}

// TestDriveCountsReconnectsSeparately pins the transport-retry path:
// connect errors during submit are retried up to the budget, counted in
// their own field, and never reach the latency clock.
func TestDriveCountsReconnectsSeparately(t *testing.T) {
	key, payload := drivePayload(t)
	c := (&fakeShard{submitID: key, serveDelay: time.Millisecond}).serve(t)
	c.HTTP = &flakyDoer{fails: 2, next: c.HTTP}

	_, ds, err := c.Drive(context.Background(), key, payload, DriveOpts{Reconnects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Reconnects != 2 || ds.Retries429 != 0 {
		t.Fatalf("reconnects=%d retries_429=%d, want 2 and 0", ds.Reconnects, ds.Retries429)
	}
}

// TestDriveGivesUpAfterReconnectBudget pins the bound: persistent
// connect failure fails the drive instead of retrying forever — at once
// with no budget (the router fails over instead), after the budget
// otherwise.
func TestDriveGivesUpAfterReconnectBudget(t *testing.T) {
	key, payload := drivePayload(t)
	for _, budget := range []int{0, 3} {
		c := Client{Base: "http://127.0.0.1:0", HTTP: &flakyDoer{fails: 1 << 30}}
		_, ds, err := c.Drive(context.Background(), key, payload, DriveOpts{Reconnects: budget})
		if err == nil {
			t.Fatalf("budget %d: Drive succeeded against a dead transport", budget)
		}
		if ds.Reconnects != budget {
			t.Fatalf("budget %d: reconnects = %d", budget, ds.Reconnects)
		}
	}
}

// TestDriveReportsHTTPCodeOfNonJSON5xx: a dying server's 5xx carries
// whatever body its proxy wrote. Submit and fetch alike must report the
// HTTP code, not a JSON syntax error — and a 500 is the job's own
// failure only when it carries a failed JobStatus.
func TestDriveReportsHTTPCodeOfNonJSON5xx(t *testing.T) {
	key, payload := drivePayload(t)
	for _, code := range []int{http.StatusBadGateway, http.StatusInternalServerError} {
		c := (&fakeShard{submitID: key, result: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			fmt.Fprint(w, "<html>upstream died</html>")
		}}).serve(t)

		_, _, err := c.Drive(context.Background(), key, payload, DriveOpts{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("HTTP %d", code)) {
			t.Fatalf("err = %v, want the fetch's HTTP %d", err, code)
		}
		if strings.Contains(err.Error(), "bad status body") || strings.Contains(err.Error(), "job failed") {
			t.Fatalf("err = %v: a 5xx body must not be parsed", err)
		}
	}
}

// TestDriveReportsFailedJob: the waiting fetch's 500 + failed JobStatus
// is the job's own error, worded as the status poll used to word it.
func TestDriveReportsFailedJob(t *testing.T) {
	key, payload := drivePayload(t)
	f := &fakeShard{submitID: key, result: func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusInternalServerError, JobStatus{ID: r.PathValue("id"), Status: StateFailed, Error: "boom"})
	}}
	_, _, err := f.serve(t).Drive(context.Background(), key, payload, DriveOpts{})
	if err == nil || err.Error() != "job failed: boom" {
		t.Fatalf("err = %v, want \"job failed: boom\"", err)
	}
	if _, deleted := f.seen(); len(deleted) != 0 {
		t.Fatalf("a failed job was abandoned too: DELETE %v", deleted)
	}
}

func TestDriveRejectsKeyMismatchOnSubmit(t *testing.T) {
	key, payload := drivePayload(t)
	c := (&fakeShard{submitID: strings.Repeat("0", 64)}).serve(t)
	_, _, err := c.Drive(context.Background(), key, payload, DriveOpts{})
	if err == nil || !strings.Contains(err.Error(), "server key") {
		t.Fatalf("err = %v, want a key-mismatch error", err)
	}
}

// TestDriveCancelledMidWaitReturnsPromptly: the standing fetch hangs
// off ctx, so a hedge loser or a drained router stops within one
// scheduling quantum — and tells the shard, once, that it has stopped
// waiting.
func TestDriveCancelledMidWaitReturnsPromptly(t *testing.T) {
	key, payload := drivePayload(t)
	f := &fakeShard{submitID: key, serveDelay: time.Hour}
	c := f.serve(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(60*time.Millisecond, cancel) // well into the wait
	t0 := time.Now()
	_, _, err := c.Drive(ctx, key, payload, DriveOpts{})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("cancelled drive took %v to return", took)
	}
	if n, deleted := f.seen(); n != 3 || len(deleted) != 1 || deleted[0] != key {
		t.Fatalf("cancelled drive made %d requests and sent DELETE for %v, want submit + fetch + one DELETE of its key", n, deleted)
	}
}

// TestDriveNeverSpinsOnAServerWithoutWait: a server that ignores ?wait=
// and answers 409 at once (a daemon older than the parameter) turns
// Drive into a paced result poll, not a busy loop.
func TestDriveNeverSpinsOnAServerWithoutWait(t *testing.T) {
	key, payload := drivePayload(t)
	f := &fakeShard{submitID: key, result: func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusConflict, JobStatus{ID: r.PathValue("id"), Status: StateRunning})
	}}
	c := f.serve(t)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, _, err := c.Drive(ctx, key, payload, DriveOpts{}); err == nil || ctx.Err() == nil {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if n, _ := f.seen(); n < 3 || n >= 100 {
		t.Fatalf("Drive made %d requests in 200ms against a server that never holds a fetch, want a paced few", n)
	}
}

// TestDriveReissuesAnElapsedWait: a 409 that took the whole wait is the
// server saying "still running", and the fetch is simply issued again.
func TestDriveReissuesAnElapsedWait(t *testing.T) {
	key, payload := drivePayload(t)
	f := &fakeShard{submitID: key}
	f.result = func(w http.ResponseWriter, r *http.Request) {
		if n, _ := f.seen(); n == 2 { // the submit was request 1
			WriteJSON(w, http.StatusConflict, JobStatus{ID: r.PathValue("id"), Status: StateRunning})
			return
		}
		fmt.Fprint(w, `{"result":"bytes"}`)
	}
	body, _, err := f.serve(t).Drive(context.Background(), key, payload, DriveOpts{})
	if n, _ := f.seen(); err != nil || string(body) != `{"result":"bytes"}` || n != 3 {
		t.Fatalf("body %q err %v after %d requests, want the bytes on the second fetch", body, err, n)
	}
}

func TestDriveRejectsOverLimitResult(t *testing.T) {
	key, payload := drivePayload(t)
	c := (&fakeShard{submitID: key, result: func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte{'x'}, MaxResultBytes+1))
	}}).serve(t)
	body, _, err := c.Drive(context.Background(), key, payload, DriveOpts{})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-limit result: %d bytes, err = %v", len(body), err)
	}
}

// TestWireShapes pins the wire documents twice over. The literals fix
// field names and omitempty, so a tag edit fails here. The live half
// fetches each document from a real daemon's handlers, decodes it
// strictly into the exported type and re-marshals it: equal bytes mean
// the handlers emit exactly the exported shape — nothing more, nothing
// renamed — which is what lets a gate re-serve them byte for byte.
func TestWireShapes(t *testing.T) {
	for _, c := range []struct {
		doc  any
		want string
	}{
		{JobStatus{ID: "k", Status: StateQueued}, `{"id":"k","status":"queued"}`},
		{JobStatus{ID: "k", Status: StateDone, Cached: true}, `{"id":"k","status":"done","cached":true}`},
		{JobStatus{ID: "k", Status: StateFailed, Error: "boom"}, `{"id":"k","status":"failed","error":"boom"}`},
		{RegistryInfo{Name: "s0", State: "serving"},
			`{"name":"s0","state":"serving","store_objects":0,"store_bytes":0,"queue_depth":0}`},
		{SessionFeedReq{Fed: 8}, `{"fed":8}`},
		{SessionFeedReq{Fed: 8, EOS: true}, `{"fed":8,"eos":true}`},
		{TraceSlice{Proc: "p", Trace: "j-1"}, `{"proc":"p","trace":"j-1","events":null}`},
		{Topdown{}, `{"retiring":0,"bad_spec":0,"frontend":0,"backend":0,"total_slots":0,"producers":0,"flushes":0,"commits":0}`},
		{Topdown{ID: "k", State: StateDone}, `{"id":"k","state":"done","retiring":0,"bad_spec":0,"frontend":0,"backend":0,"total_slots":0,"producers":0,"flushes":0,"commits":0}`},
	} {
		got, err := json.Marshal(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T:\n  got  %s\n  want %s", c.doc, got, c.want)
		}
	}
	// The optional members of the session documents: absent when zero.
	for _, c := range []struct {
		doc    any
		absent []string
	}{
		{SessionCreateReq{}, []string{"resume"}},
		{SessionCreateResp{}, []string{"resumed", "shard", "trace"}},
	} {
		got, _ := json.Marshal(c.doc)
		for _, f := range c.absent {
			if bytes.Contains(got, []byte(`"`+f+`"`)) {
				t.Errorf("%T marshals zero %q: %s", c.doc, f, got)
			}
		}
	}

	_, hts := testServer(t, Config{Workers: 2, SampleInterval: time.Hour}, true)
	raw := func(method, path string, body any) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, _ := http.NewRequest(method, hts.URL+path, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return out
	}
	same := func(name string, got []byte, into any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Errorf("%s: handler bytes do not fit %T: %v\n  %s", name, into, err, got)
			return
		}
		again, _ := json.Marshal(into)
		if !bytes.Equal(append(again, '\n'), got) {
			t.Errorf("%s: handler bytes differ from %T:\n  handler %s  type    %s", name, into, got, again)
		}
	}

	spec := validEncodeSpec()
	spec.Normalize()
	key := spec.Key()
	same("submit", raw("POST", "/v1/jobs", &spec), &JobStatus{})
	pollDone(t, hts.URL, key)
	same("status done", raw("GET", "/v1/jobs/"+key, nil), &JobStatus{})
	same("resubmit cached", raw("POST", "/v1/jobs", &spec), &JobStatus{})
	same("registry", raw("GET", "/v1/registry", nil), &RegistryInfo{})
	same("trace slice", raw("GET", "/v1/trace/"+obs.JobTraceID(key), nil), &TraceSlice{})
	same("job topdown", raw("GET", "/v1/jobs/"+key+"/topdown", nil), &Topdown{})
	same("topdown", raw("GET", "/v1/telemetry/topdown", nil), &Topdown{})
	same("series", raw("GET", "/v1/telemetry/series", nil), &telemetry.Window{})
	same("slo", raw("GET", "/v1/slo", nil), &telemetry.SLOReport{})

	created := raw("POST", "/v1/sessions", SessionCreateReq{Spec: liveTestSpec()})
	var cr SessionCreateResp
	same("session create", created, &cr)
	same("session stats", raw("GET", "/v1/sessions/"+cr.ID+"/stats", nil), &SessionStatsResp{})
	same("session feed", raw("POST", "/v1/sessions/"+cr.ID+"/frames", SessionFeedReq{Fed: 16, EOS: true}), &SessionFeedResp{})
}

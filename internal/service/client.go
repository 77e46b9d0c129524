package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// Doer is the transport seam: *http.Client in production, fault-wrapped
// transports in tests.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Client speaks the shard wire protocol to one vcprofd — a daemon or a
// gate (vcprofd -shards), which serve the same protocol. It is the only
// HTTP client in the tree: the router, vcload, vclive and vcperf all go
// through it, so a status code, a size limit or a header is decided
// here once. A nil HTTP means http.DefaultClient. Every body read is
// bounded by MaxResultBytes.
type Client struct {
	Base string // e.g. http://127.0.0.1:8791
	HTTP Doer
}

// do sends one request to url (Base plus a path, joined by the caller
// in one concatenation). A nil payload sends no body; an empty trace
// sends no propagation header.
func (c Client) do(ctx context.Context, method, url string, payload []byte, trace string) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the hop-trace id so the shard's slice files under the
	// same trace the gate (and the client) will query.
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if c.HTTP == nil {
		return http.DefaultClient.Do(req)
	}
	return c.HTTP.Do(req)
}

// status sends a request whose answer is a JobStatus, streaming the
// decode. A body that is not a status document is an error below 500
// only: a dying server's 5xx is reported by its code, whatever it wrote.
func (c Client) status(ctx context.Context, method, url string, payload []byte, trace string) (JobStatus, int, error) {
	resp, err := c.do(ctx, method, url, payload, trace)
	if err != nil {
		return JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxSpecBytes)).Decode(&st); err != nil && resp.StatusCode < 500 {
		return JobStatus{}, resp.StatusCode, fmt.Errorf("bad status body (HTTP %d): %w", resp.StatusCode, err)
	}
	return st, resp.StatusCode, nil
}

// StatusError is an answer whose HTTP status was not the one the call
// needed; Body is the (trimmed) document the server sent with it.
type StatusError struct {
	Method, URL string
	Code        int
	Body        string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.Method, e.URL, e.Code, e.Body)
}

// read sends a request and returns the whole answer, which must carry
// status want (else a *StatusError) and fit MaxResultBytes.
func (c Client) read(ctx context.Context, method, url string, payload []byte, trace string, want int) ([]byte, error) {
	resp, err := c.do(ctx, method, url, payload, trace)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxResultBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, &StatusError{Method: method, URL: url, Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	}
	if len(body) > MaxResultBytes {
		return nil, fmt.Errorf("%s %s: body exceeds %d bytes", method, url, MaxResultBytes)
	}
	return body, nil
}

// call is read plus a typed decode of the answer; in, when non-nil, is
// marshalled as the request document.
func call[T any](ctx context.Context, c Client, method, url string, in any, trace string, want int) (T, error) {
	var out T
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return out, err
		}
	}
	body, err := c.read(ctx, method, url, payload, trace, want)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("%s %s: bad body: %w", method, url, err)
	}
	return out, nil
}

// Get fetches path's raw 200 body: the text surfaces (/metrics, the
// folded profile, merged Chrome traces) and any document the caller
// dumps verbatim or this package cannot name (the gate's
// /v1/cluster/stats).
func (c Client) Get(ctx context.Context, path string) ([]byte, error) {
	return c.read(ctx, http.MethodGet, c.Base+path, nil, "", http.StatusOK)
}

// Submit posts a marshalled JobSpec. The code distinguishes 200 (already
// stored), 202 (queued or joined), 429 (saturated) and 503 (draining).
// The submit is seen through: a job accepted for a caller whose ctx has
// ended is abandoned again, and the caller gets ctx's error.
func (c Client) Submit(ctx context.Context, payload []byte, trace string) (JobStatus, int, error) {
	code := 0
	st, err := seen(ctx, func(sctx context.Context) (st JobStatus, err error) {
		st, code, err = c.status(sctx, http.MethodPost, c.Base+"/v1/jobs", payload, trace)
		return st, err
	}, func(st JobStatus) {
		if code == http.StatusAccepted {
			c.giveBack(ctx, "/v1/jobs/"+st.ID)
		}
	})
	return st, code, err
}

// Result fetches a finished job's result bytes.
func (c Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.read(ctx, http.MethodGet, c.Base+"/v1/results/"+id, nil, "", http.StatusOK)
}

// PutResult pushes result bytes to a shard as a replica write.
func (c Client) PutResult(ctx context.Context, id string, body []byte) error {
	_, err := c.read(ctx, http.MethodPut, c.Base+"/v1/results/"+id, body, "", http.StatusNoContent)
	return err
}

// HasResult is the ownership-hint probe (HEAD /v1/results/{id}).
func (c Client) HasResult(ctx context.Context, id string) (bool, error) {
	resp, err := c.do(ctx, http.MethodHead, c.Base+"/v1/results/"+id, nil, "")
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// Registry reads the shard's registry document — the health probe.
func (c Client) Registry(ctx context.Context) (RegistryInfo, error) {
	return call[RegistryInfo](ctx, c, http.MethodGet, c.Base+"/v1/registry", nil, "", http.StatusOK)
}

// TraceSlice fetches the process's raw hop slice for one trace id.
func (c Client) TraceSlice(ctx context.Context, id string) (TraceSlice, error) {
	return call[TraceSlice](ctx, c, http.MethodGet, c.Base+"/v1/trace/"+id, nil, "", http.StatusOK)
}

// Metrics scrapes the Prometheus exposition; volatile=false narrows it
// to the deterministic, byte-stable subset.
func (c Client) Metrics(ctx context.Context, volatile bool) (*telemetry.ParsedProm, error) {
	path := "/metrics"
	if !volatile {
		path += "?volatile=0"
	}
	body, err := c.Get(ctx, path)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseProm(string(body))
}

// SLO reads the live-session burn-rate report.
func (c Client) SLO(ctx context.Context) (telemetry.SLOReport, error) {
	return call[telemetry.SLOReport](ctx, c, http.MethodGet, c.Base+"/v1/slo", nil, "", http.StatusOK)
}

// Topdown reads the streaming top-down snapshot: one job's when jobID
// is set, else the process aggregate.
func (c Client) Topdown(ctx context.Context, jobID string) (Topdown, error) {
	path := "/v1/telemetry/topdown"
	if jobID != "" {
		path = "/v1/jobs/" + jobID + "/topdown"
	}
	return call[Topdown](ctx, c, http.MethodGet, c.Base+path, nil, "", http.StatusOK)
}

// CreateSession opens (or, with req.Resume, re-creates) a live session.
// The create is seen through: a session opened for a caller whose ctx
// has ended is deleted again, since it would hold one of the server's
// slots for nobody, and the caller gets ctx's error.
func (c Client) CreateSession(ctx context.Context, req SessionCreateReq, trace string) (SessionCreateResp, error) {
	return seen(ctx, func(sctx context.Context) (SessionCreateResp, error) {
		return call[SessionCreateResp](sctx, c, http.MethodPost, c.Base+"/v1/sessions", req, trace, http.StatusCreated)
	}, func(created SessionCreateResp) { c.DeleteSession(ctx, created.ID) })
}

// FeedSession advances a session's arrival watermark.
func (c Client) FeedSession(ctx context.Context, id string, req SessionFeedReq, trace string) (SessionFeedResp, error) {
	return call[SessionFeedResp](ctx, c, http.MethodPost, c.Base+"/v1/sessions/"+id+"/frames", req, trace, http.StatusOK)
}

// SessionStats reads a session's cumulative stats and SLO burn.
func (c Client) SessionStats(ctx context.Context, id string) (SessionStatsResp, error) {
	return call[SessionStatsResp](ctx, c, http.MethodGet, c.Base+"/v1/sessions/"+id+"/stats", nil, "", http.StatusOK)
}

// DeleteSession closes a session, freeing its slot. The DELETE rides a
// grace context (giveBack), so a caller whose ctx has ended still frees
// the slot it holds.
func (c Client) DeleteSession(ctx context.Context, id string) error {
	return c.giveBack(ctx, "/v1/sessions/"+id)
}

// DriveOpts are the two points where Drive's callers differ.
type DriveOpts struct {
	// Trace is the hop-trace id propagated on the submit ("" sends none).
	Trace string
	// Reconnects bounds in-place retries of a submit that failed at the
	// transport: vcload rides out a gate failing over or a listener
	// mid-restart; the router passes 0 and fails over to another shard.
	Reconnects int
}

// DriveStats is one drive's attempt accounting. Served measures the
// serving latency — accepted submit to result bytes in hand — NOT the
// time spent getting accepted: 429 backoff sleeps and reconnect retries
// are admission noise, counted in their own fields, so a saturated or
// flapping server shows up as retries rather than as a fake latency
// tail. The counters are valid on error too.
type DriveStats struct {
	Served     time.Duration
	Retries429 int  // submits answered 429 and retried
	Reconnects int  // submit transport errors retried
	Cached     bool // the submit was answered from the store (200)
}

// Drive pushes one job through its whole lifecycle in two requests: the
// submit, and one result fetch the server holds until the job is
// terminal. key is the spec's content address, which the server must
// echo; payload is the marshalled spec, built once by the caller and
// reused across attempts. When ctx ends while the job is still the
// server's to compute, Drive gives its submit's interest back, so a job
// nobody else asked for stops there too; a submit already on the wire
// is answered first (Submit sees it through), since the server may have
// taken it.
func (c Client) Drive(ctx context.Context, key string, payload []byte, o DriveOpts) ([]byte, DriveStats, error) {
	var ds DriveStats
	if err := c.submitAccepted(ctx, key, payload, o, &ds); err != nil {
		return nil, ds, err
	}
	// The served clock starts here: the job is accepted (or cached);
	// everything before this point was admission, not service.
	accepted := time.Now()
	body, err := c.awaitResult(ctx, key)
	if err != nil {
		if ctx.Err() != nil && !ds.Cached {
			c.giveBack(ctx, "/v1/jobs/"+key)
		}
		return nil, ds, err
	}
	ds.Served = time.Since(accepted)
	return body, ds, nil
}

// submitAccepted submits until the server takes the job — 429s and, up
// to o.Reconnects, transport errors retried in place — and checks the
// echoed key. The retries are counted in ds, which is valid on error too.
func (c Client) submitAccepted(ctx context.Context, key string, payload []byte, o DriveOpts, ds *DriveStats) error {
	for {
		st, code, err := c.Submit(ctx, payload, o.Trace)
		if err != nil {
			if ds.Reconnects >= o.Reconnects || ctx.Err() != nil {
				return fmt.Errorf("submit (after %d reconnects): %w", ds.Reconnects, err)
			}
			ds.Reconnects++
			if err := SleepCtx(ctx, 10*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		if code == http.StatusTooManyRequests {
			ds.Retries429++
			if err := SleepCtx(ctx, 25*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return fmt.Errorf("submit: HTTP %d: %s", code, st.Error)
		}
		if st.ID != key {
			return fmt.Errorf("submit: server key %s != local key %s", st.ID, key)
		}
		ds.Cached = code == http.StatusOK
		return nil
	}
}

// seen sends a request that may take something on the server before it
// answers — a submit's interest in its job, a session's slot — and sees
// it through. Only the answer says what was taken, and a request
// cancelled in flight would leave it held for nobody, so send runs on a
// context that outlives ctx by up to AbandonGrace. When ctx has ended by
// the time the answer is in, giveBack returns what the answer took and
// the caller gets ctx's error.
func seen[T any](ctx context.Context, send func(context.Context) (T, error), giveBack func(T)) (T, error) {
	sctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	stop := context.AfterFunc(ctx, func() { time.AfterFunc(AbandonGrace, cancel) })
	v, err := send(sctx)
	stop()
	if err == nil && ctx.Err() != nil {
		giveBack(v)
		var zero T
		return zero, ctx.Err()
	}
	return v, err
}

// driveWait is the wait Drive asks of each result fetch (at most
// MaxWait, so a server grants it whole).
const driveWait = 30 * time.Second

// awaitResult fetches key's result with ?wait=: the server answers the
// moment the job is terminal, so the normal drive is this one request. A
// 409 means the wait ran out with the job still in flight, and the fetch
// is issued again until ctx ends; one that came back sooner than asked
// is a server that does not implement wait, and is paced so Drive cannot
// spin on it. A 500 carrying a failed JobStatus is the job's own error;
// any other answer is reported by its HTTP code, whatever its body.
func (c Client) awaitResult(ctx context.Context, key string) ([]byte, error) {
	url := c.Base + "/v1/results/" + key + "?wait=" + driveWait.String()
	for {
		asked := time.Now()
		body, err := c.read(ctx, http.MethodGet, url, nil, "", http.StatusOK)
		var se *StatusError
		if !errors.As(err, &se) {
			return body, err
		}
		var st JobStatus
		if se.Code == http.StatusInternalServerError &&
			json.Unmarshal([]byte(se.Body), &st) == nil && st.Status == StateFailed {
			return nil, fmt.Errorf("job failed: %s", st.Error)
		}
		if se.Code != http.StatusConflict {
			return nil, err
		}
		if time.Since(asked) < driveWait {
			if err := SleepCtx(ctx, 10*time.Millisecond); err != nil {
				return nil, err
			}
		}
	}
}

// AbandonGrace bounds what a caller whose context has ended still waits
// for: a submit's or a create's answer, then the DELETE that gives back
// what it took.
const AbandonGrace = time.Second

// giveBack sends the DELETE of path — an accepted submit's interest
// (/v1/jobs/{id}, which a daemon and a gate both serve), a session's
// slot — on a grace context of its own, since the caller's may have
// ended: what it frees is held until it arrives.
func (c Client) giveBack(ctx context.Context, path string) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), AbandonGrace)
	defer cancel()
	_, err := c.read(ctx, http.MethodDelete, c.Base+path, nil, "", http.StatusNoContent)
	return err
}

// SleepCtx sleeps for d, or returns ctx's error as soon as ctx ends.
func SleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

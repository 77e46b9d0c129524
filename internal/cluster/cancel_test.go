package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// The cancellation sweep (DESIGN.md §8): a client that walks away leaves
// nothing running or open for nobody. Each client flow is run once to
// number its requests, then once per request and point with the caller's
// context cancelled there: before the request is sent, once the server
// has handled it but its answer is still held, and once its answer has
// been read. Whatever the point, every daemon's and the gate's job and
// session tables must be empty within AbandonGrace plus one tick of the
// cancellation.
//
// A daemon that takes a job computes it only once the flow has asked for
// a result (or the run is over), so a job or a drive the flow left
// behind cannot finish on its own and hide: a gate's drive waits on its
// idle shards for good, and a daemon's job, if the flow never asked for
// it, must not be in the store once its workers run.

// point is where in one request's life the sweep cancels the caller.
type point int

const (
	before point = iota // the request is not sent
	held                // the server handled it; its answer is still on the wire
	after               // the answer has been read
)

var pointNames = [...]string{"before", "held", "after"}

// sweepTick is the sweep's poll step and its slack past AbandonGrace.
func sweepTick() time.Duration {
	if raceEnabled {
		return 250 * time.Millisecond
	}
	return 50 * time.Millisecond
}

// sweepDoer is a flow's transport: it numbers every request and cancels
// the flow's context at request k, point p (k 0: never). A result fetch
// that goes out on a live context first calls asked.
type sweepDoer struct {
	http   *http.Client
	k      int
	p      point
	cancel context.CancelFunc
	asked  func()

	n         int
	labels    []string  // "post-jobs", … in request order
	fetched   bool      // a live result fetch went out
	cancelled time.Time // when the flow's context was cancelled
}

func (d *sweepDoer) Do(req *http.Request) (*http.Response, error) {
	d.n++
	d.labels = append(d.labels, route(req))
	at := d.n == d.k
	if at && d.p == before {
		d.cancelNow()
	}
	if req.Context().Err() == nil && req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/results/") {
		d.fetched = true
		d.asked()
	}
	resp, err := d.http.Do(req)
	if err != nil || !at || d.p == before {
		return resp, err
	}
	if d.p == after {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	d.cancelNow()
	if d.p == held && req.Context().Err() != nil {
		// The answer was still on the wire when its request's context
		// ended: the transport would have dropped it.
		resp.Body.Close()
		return nil, req.Context().Err()
	}
	return resp, nil
}

func (d *sweepDoer) cancelNow() {
	d.cancel()
	d.cancelled = time.Now()
}

// route names a request by its method and the words of its path below
// /v1/, ids left out: "post-sessions-frames".
func route(req *http.Request) string {
	name := strings.ToLower(req.Method)
	for i, part := range strings.Split(strings.TrimPrefix(req.URL.Path, "/v1/"), "/") {
		if i != 1 {
			name += "-" + part
		}
	}
	return name
}

// sweepRig is what one run of a flow talks to: idle daemons behind a
// gate, the job a drive flow drives, and start, which sets the daemons'
// workers going once.
type sweepRig struct {
	set     *shardSet
	gate    *Router
	gateURL string
	key     string
	payload []byte
	start   func()
}

func (rig *sweepRig) gateSessions() int {
	rig.gate.sessions.mu.Lock()
	defer rig.gate.sessions.mu.Unlock()
	return len(rig.gate.sessions.m)
}

// newRig builds n idle daemons behind a gate configured by mut.
func newRig(t *testing.T, n int, mut func(*Config)) *sweepRig {
	set := newIdleShardSet(t, n)
	spec := testSpecs(t, 1)[0]
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	rig := &sweepRig{set: set, key: spec.Key(), payload: payload, start: func() {
		once.Do(func() {
			for _, srv := range set.srvs {
				srv.Start()
			}
		})
	}}
	var hts *httptest.Server
	rig.gate, hts = gateServer(t, set, mut)
	rig.gateURL = hts.URL
	return rig
}

// sweepFlow is one client flow: it talks to the gate or to the first
// daemon of a rig of shards daemons whose gate mut configures.
type sweepFlow struct {
	name   string
	shards int
	mut    func(*Config)
	gated  bool
	run    func(ctx context.Context, c service.Client, rig *sweepRig) error
}

func driveFlow(ctx context.Context, c service.Client, rig *sweepRig) error {
	_, _, err := c.Drive(ctx, rig.key, rig.payload, service.DriveOpts{})
	return err
}

// sessionFlow opens a session, feeds it to fed without finishing it and
// deletes it — always, as vclive does for a session it created but did
// not finish.
func sessionFlow(req service.SessionCreateReq, fed int) func(context.Context, service.Client, *sweepRig) error {
	return func(ctx context.Context, c service.Client, _ *sweepRig) error {
		created, err := c.CreateSession(ctx, req, "")
		if err != nil {
			return err
		}
		_, ferr := c.FeedSession(ctx, created.ID, service.SessionFeedReq{Fed: fed}, "")
		return errors.Join(ferr, c.DeleteSession(ctx, created.ID))
	}
}

// TestCancellationSweep runs every flow at every point, each run against
// daemons and a gate of its own. The session flows then run at every
// point again against one daemon and its gate, which must be left with
// no session open, and the daemon must still open all 64 of its
// sessions.
func TestCancellationSweep(t *testing.T) {
	spec := liveSessionSpec()
	spec.Frames, spec.Rungs = 16, nil
	c := service.Client{Base: newRig(t, 1, nil).set.shards[0].URL}
	opened, err := c.CreateSession(context.Background(), service.SessionCreateReq{Spec: spec}, "")
	if err != nil {
		t.Fatal(err)
	}
	gop, err := c.FeedSession(context.Background(), opened.ID, service.SessionFeedReq{Fed: spec.GOP}, "")
	if err != nil {
		t.Fatal(err)
	}
	tok := gop.Resume

	hedged := func(c *Config) { c.Replicas, c.HedgeMin, c.HedgeMax = 2, time.Nanosecond, time.Nanosecond }
	create, resume := service.SessionCreateReq{Spec: spec}, service.SessionCreateReq{Spec: spec, Resume: &tok}
	sessionFlows := []sweepFlow{
		{"daemon-session", 1, nil, false, sessionFlow(create, spec.GOP/2)},
		{"gate-session", 1, nil, true, sessionFlow(create, spec.GOP/2)},
		{"daemon-resume", 1, nil, false, sessionFlow(resume, spec.GOP+spec.GOP/2)},
	}
	flows := append([]sweepFlow{
		{"daemon-drive", 1, nil, false, driveFlow},
		{"gate-drive", 1, nil, true, driveFlow},
		{"hedged-drive", 2, hedged, true, driveFlow},
	}, sessionFlows...)
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) { sweep(t, f) })
	}

	shared := newRig(t, 1, nil)
	for _, f := range sessionFlows {
		dry, _ := flowAt(f, shared, 0, before)
		for k := range dry.n {
			for p := range pointNames {
				flowAt(f, shared, k+1, point(p))
			}
		}
	}
	deadline := time.Now().Add(service.AbandonGrace + sweepTick())
	drained(t, deadline, "the gate's sessions after every session flow", shared.gateSessions)
	drained(t, deadline, "the daemon's sessions after every session flow", shared.set.srvs[0].Sessions)
	c.Base = shared.set.shards[0].URL
	for i := 0; i < 64; i++ {
		if _, err := c.CreateSession(context.Background(), service.SessionCreateReq{Spec: spec}, ""); err != nil {
			t.Fatalf("session %d of 64 after the sweep: %v", i+1, err)
		}
	}
}

// sweep numbers f's requests in an uncancelled run on a rig of its own,
// then runs f once per request and point, each run on a fresh rig.
func sweep(t *testing.T, f sweepFlow) {
	dry := runFlow(t, f, 0, before)
	for k, label := range dry.labels {
		for p := range pointNames {
			name := fmt.Sprintf("%d-%s-%s", k+1, label, pointNames[p])
			t.Run(name, func(t *testing.T) { runFlow(t, f, k+1, point(p)) })
		}
	}
}

// flowAt runs f on rig with the caller's context cancelled at request k,
// point p (k 0: never).
func flowAt(f sweepFlow, rig *sweepRig, k int, p point) (*sweepDoer, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := &sweepDoer{http: &http.Client{Transport: tr}, k: k, p: p, cancel: cancel, asked: rig.start}
	base := rig.set.shards[0].URL
	if f.gated {
		base = rig.gateURL
	}
	return d, f.run(ctx, service.Client{Base: base, HTTP: d}, rig)
}

// runFlow runs f on a rig of its own with the caller's context cancelled
// at request k, point p, and checks that the tables drain. k 0 is the
// uncancelled run, which must succeed.
func runFlow(t *testing.T, f sweepFlow, k int, p point) *sweepDoer {
	t.Helper()
	rig := newRig(t, f.shards, f.mut)
	d, err := flowAt(f, rig, k, p)
	if k == 0 {
		if err != nil {
			t.Fatalf("uncancelled run: %v", err)
		}
		d.cancelNow()
	}
	if d.cancelled.IsZero() {
		t.Fatalf("the flow made %d requests and never reached request %d", d.n, k)
	}

	deadline := d.cancelled.Add(service.AbandonGrace + sweepTick())
	// The daemons are idle unless the flow asked for a result: a drive
	// left for nobody waits on them for good.
	drained(t, deadline, "the gate's drives", rig.gate.api.Inflight)
	drained(t, deadline, "the gate's sessions", rig.gateSessions)
	rig.start()
	for i, srv := range rig.set.srvs {
		name := rig.set.shards[i].Name
		drained(t, deadline, name+"'s jobs", srv.Inflight)
		drained(t, deadline, name+"'s sessions", srv.Sessions)
		if !d.fetched && srv.Store().Contains(rig.key) {
			t.Errorf("%s computed the job, and nobody asked for its result", name)
		}
	}
	return d
}

// drained fails the test unless n reads 0 by deadline.
func drained(t *testing.T, deadline time.Time, what string, n func() int) {
	t.Helper()
	for {
		left := n()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d left after %v", what, left, service.AbandonGrace+sweepTick())
			return
		}
		time.Sleep(sweepTick() / 10)
	}
}

// stallShard answers nothing: it holds every request until the request's
// context ends, then stamps the end, or until over is closed.
type stallShard struct {
	arrived chan string
	ended   chan time.Time
}

func (s *stallShard) serve(t *testing.T, name string, over <-chan struct{}) Shard {
	s.arrived, s.ended = make(chan string, 8), make(chan time.Time, 8)
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.arrived <- r.URL.Path
		select {
		case <-r.Context().Done():
			s.ended <- time.Now()
		case <-over:
		}
	}))
	t.Cleanup(hts.Close)
	return Shard{Name: name, URL: hts.URL}
}

// TestGateFanOutsStopAtDisconnect: the gate's shard fan-outs are work of
// the client's request. When the client goes, the shard request in flight
// is cancelled and the handler returns, each within a tick, and no
// further shard is asked.
func TestGateFanOutsStopAtDisconnect(t *testing.T) {
	for _, path := range []string{
		"/v1/cluster/trace/" + obs.JobTraceID(strings.Repeat("0", 64)),
		"/v1/slo",
		"/v1/cluster/metrics",
	} {
		t.Run(strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "-"), func(t *testing.T) {
			var s0, s1 stallShard
			over := make(chan struct{})
			rt, _ := newTestRouter(t, &shardSet{shards: []Shard{s0.serve(t, "s0", over), s1.serve(t, "s1", over)}}, nil)
			returned := make(chan time.Time, 1)
			h := rt.Handler()
			gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				returned <- time.Now()
			}))
			t.Cleanup(gate.Close)
			t.Cleanup(func() { close(over) }) // first: a held handler would keep gate.Close waiting

			ctx, cancel := context.WithCancel(context.Background())
			go get(ctx, gate.URL+path)
			<-s0.arrived
			t0 := time.Now()
			cancel()
			tick := sweepTick()
			for what, ch := range map[string]chan time.Time{"the shard request": s0.ended, "the handler": returned} {
				select {
				case at := <-ch:
					if took := at.Sub(t0); took > tick {
						t.Errorf("%s ended %v after the disconnect, want within %v", what, took, tick)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s has not ended 5s after the disconnect", what)
				}
			}
			select {
			case got := <-s1.arrived:
				t.Errorf("the gate asked s1 (%s) after its client had gone", got)
			default:
			}
		})
	}
}

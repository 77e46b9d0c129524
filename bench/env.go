package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"vcprof/internal/cluster"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
)

// daemon is an in-process vcprofd (or vcgate) behind a real loopback
// listener, so the HTTP stack is on the measured path.
type daemon struct {
	base     string
	http     *http.Server
	shutdown func(context.Context) error
	served   chan struct{}
	storeDir string // removed on stop; empty for a gate
}

func serveOn(h http.Handler, shutdown func(context.Context) error) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		base:     "http://" + ln.Addr().String(),
		http:     &http.Server{Handler: h},
		shutdown: shutdown,
		served:   make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener, drains the daemon and waits for the serve
// goroutine.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // in-process teardown: a straggling conn is closed with the process
	<-d.served
	_ = d.shutdown(ctx) // store index flush failing only loses LRU order of a temp store
	if d.storeDir != "" {
		_ = os.RemoveAll(d.storeDir) // scratch; a leftover is only clutter under bench/out
	}
}

// bootServer starts a vcprofd on a fresh store under dir. Everything
// but worker count, store dir and shard name is the zero-value
// default.
func bootServer(ctx context.Context, dir, name string, workers int) (*daemon, error) {
	store, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(ctx, service.Config{StoreDir: store, Workers: workers, ShardName: name})
	if err != nil {
		_ = os.RemoveAll(store)
		return nil, err
	}
	srv.Start()
	d, err := serveOn(srv.Handler(), srv.Shutdown)
	if err != nil {
		_ = srv.Shutdown(ctx)
		_ = os.RemoveAll(store)
		return nil, err
	}
	d.storeDir = store
	return d, nil
}

// gate is a vcgate over in-process shards.
type gate struct {
	front  *daemon
	router *cluster.Router
	shards []*daemon
}

// bootGate starts nShards daemons sharing `workers` workers in total
// and a router over them with replication factor R.
func bootGate(ctx context.Context, dir string, nShards, replicas, workers int) (*gate, error) {
	g := &gate{}
	per := workers / nShards
	if per < 1 {
		per = 1
	}
	var shards []cluster.Shard
	for i := 0; i < nShards; i++ {
		name := fmt.Sprintf("s%d", i)
		d, err := bootServer(ctx, dir, name, per)
		if err != nil {
			g.stop()
			return nil, err
		}
		g.shards = append(g.shards, d)
		shards = append(shards, cluster.Shard{Name: name, URL: d.base})
	}
	r, err := cluster.NewRouter(ctx, cluster.Config{Shards: shards, Replicas: replicas})
	if err != nil {
		g.stop()
		return nil, err
	}
	r.Start()
	g.router = r
	g.front, err = serveOn(r.Handler(), r.Shutdown)
	if err != nil {
		_ = r.Shutdown(ctx)
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *gate) stop() {
	if g.front != nil {
		g.front.stop()
	}
	for _, d := range g.shards {
		d.stop()
	}
}

// pollQuantum is the fixed status-poll interval. vcload backs off
// exponentially; a fixed quantum keeps the poll count a function of
// job latency alone, so polls_per_job is comparable across commits.
const pollQuantum = 2 * time.Millisecond

// driveTimes splits one served job the way vcload does: admission
// (submit round trips, 429 backoff) apart from service (accepted →
// bytes in hand).
type driveTimes struct {
	submit       time.Duration
	acceptToDone time.Duration
	fetch        time.Duration
	polls        int
	retries429   int
	cached       bool
}

type wireStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// driveJob speaks vcload's wire protocol against a daemon or gate:
// submit, poll at the fixed quantum, fetch. parent is the op's span.
func driveJob(ctx context.Context, c *client, base, layer string, spec *service.JobSpec, opID, parent int) ([]byte, driveTimes, error) {
	var dt driveTimes
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, dt, err
	}
	id := spec.Key()

	h := c.begin(layer+".submit", opID, parent)
	t0 := time.Now()
	for {
		st, code, err := doStatus(ctx, c.http, http.MethodPost, base+"/v1/jobs", payload)
		if err != nil {
			c.end(h)
			return nil, dt, fmt.Errorf("submit: %w", err)
		}
		if code == http.StatusTooManyRequests {
			dt.retries429++
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			c.end(h)
			return nil, dt, fmt.Errorf("submit: HTTP %d: %s", code, st.Error)
		}
		if st.ID != id {
			c.end(h)
			return nil, dt, fmt.Errorf("server key %s != spec key %s", st.ID, id)
		}
		dt.cached = code == http.StatusOK
		break
	}
	c.end(h)
	dt.submit = time.Since(t0)

	h = c.begin(layer+".poll", opID, parent)
	t1 := time.Now()
	for {
		st, code, err := doStatus(ctx, c.http, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, st.Error)
		}
		if err == nil && st.Status == service.StateFailed {
			err = fmt.Errorf("job failed: %s", st.Error)
		}
		if err != nil {
			c.end(h)
			return nil, dt, fmt.Errorf("poll: %w", err)
		}
		dt.polls++
		if st.Status == service.StateDone {
			break
		}
		time.Sleep(pollQuantum)
	}
	c.end(h)
	dt.acceptToDone = time.Since(t1)

	h = c.begin(layer+".fetch", opID, parent)
	t2 := time.Now()
	body, err := getBody(ctx, c.http, base+"/v1/results/"+id)
	c.end(h)
	dt.fetch = time.Since(t2)
	if err != nil {
		return nil, dt, fmt.Errorf("fetch: %w", err)
	}
	return body, dt, nil
}

func doStatus(ctx context.Context, hc *http.Client, method, url string, payload []byte) (wireStatus, int, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return wireStatus{}, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return wireStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st wireStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode < 500 {
		return wireStatus{}, resp.StatusCode, fmt.Errorf("bad status body: %w", err)
	}
	return st, resp.StatusCode, nil
}

func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads a daemon's /metrics through the shared parser.
func scrape(ctx context.Context, hc *http.Client, base string) (*telemetry.ParsedProm, error) {
	body, err := getBody(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return telemetry.ParseProm(string(body))
}

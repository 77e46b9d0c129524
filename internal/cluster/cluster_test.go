package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vcprof/internal/cluster/chaos"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// The cluster test wall drives real service.Servers behind httptest
// listeners — every shard is a full vcprofd core with its own store
// and worker pool, reached over real HTTP — so routing, hedging,
// failover and replication are exercised against the same surface the
// production daemons expose.

// shardSet is one in-process cluster: N service daemons, each behind
// an httptest listener wrapped in a chaos injector.
type shardSet struct {
	shards []Shard
	srvs   []*service.Server
	https  []*httptest.Server
	injs   []*chaos.Injector
}

func newShardSet(t *testing.T, n int) *shardSet {
	t.Helper()
	set := newIdleShardSet(t, n)
	for _, srv := range set.srvs {
		srv.Start()
	}
	return set
}

// newIdleShardSet is newShardSet with the daemons' workers not started:
// a job they take stays queued until the test starts them.
func newIdleShardSet(t *testing.T, n int) *shardSet {
	t.Helper()
	set := &shardSet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		srv, err := service.NewServer(context.Background(), service.Config{
			StoreDir:  t.TempDir(),
			Workers:   2,
			QueueCap:  256,
			ShardName: name,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New()
		hts := httptest.NewServer(inj.Wrap(srv.Handler()))
		set.srvs = append(set.srvs, srv)
		set.https = append(set.https, hts)
		set.injs = append(set.injs, inj)
		set.shards = append(set.shards, Shard{Name: name, URL: hts.URL})
	}
	t.Cleanup(func() {
		for i := range set.srvs {
			set.https[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			set.srvs[i].Shutdown(ctx)
			cancel()
		}
	})
	return set
}

// newTestRouter builds and starts a router over the set with its own
// transport (so idle connections are closed per test, keeping the
// goroutine-leak checks honest). The prober is off; tests that need
// health convergence call ProbeNow or rely on attempt failures.
func newTestRouter(t *testing.T, set *shardSet, mut func(*Config)) (*Router, *http.Client) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{}}
	cfg := Config{
		Shards:       set.shards,
		ProbeFails:   1,
		RetryBackoff: 2 * time.Millisecond,
		Client:       client,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		client.CloseIdleConnections()
	})
	return rt, client
}

// testSpecs returns n distinct tiny encode specs — 1 frame at 1/32
// scale, a few milliseconds each — already normalized and validated.
func testSpecs(t *testing.T, n int) []*service.JobSpec {
	t.Helper()
	specs := make([]*service.JobSpec, n)
	for i := range specs {
		s := &service.JobSpec{
			Kind:     service.KindEncode,
			Family:   "x264",
			Clip:     "desktop",
			Frames:   1,
			ScaleDiv: 32,
			CRF:      20 + i%8,
			Preset:   1 + i%3,
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		specs[i] = s
	}
	return specs
}

// driveRouter pushes every spec through the gate's handler — submit,
// then one waiting fetch — and folds the result bodies into the topology
// digest.
func driveRouter(t *testing.T, rt *Router, specs []*service.JobSpec) string {
	t.Helper()
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		bodies[i] = driveOne(t, rt, s)
	}
	return obs.FoldDigest(bodyDigests(bodies))
}

// call answers one request through h, in process.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// submit posts a spec through h and decodes the JobStatus answered.
func submit(t *testing.T, h http.Handler, s *service.JobSpec) (service.JobStatus, int) {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	code, body := call(h, http.MethodPost, "/v1/jobs", payload)
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	return st, code
}

func driveOne(t *testing.T, rt *Router, s *service.JobSpec) []byte {
	t.Helper()
	h := rt.Handler()
	if st, code := submit(t, h, s); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d: %s", s.Key()[:8], code, st.Error)
	}
	return fetchDone(t, h, s.Key())
}

// fetchDone fetches a job's bytes through h, waiting for it to finish.
func fetchDone(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	code, body := call(h, http.MethodGet, "/v1/results/"+id+"?wait=60s", nil)
	if code != http.StatusOK {
		t.Fatalf("job %s: HTTP %d: %s", id[:8], code, body)
	}
	return body
}

// baselineDigest computes the single-daemon reference digest by
// driving one standalone service over plain HTTP, no router involved.
func baselineDigest(t *testing.T, specs []*service.JobSpec) string {
	t.Helper()
	srv, err := service.NewServer(context.Background(), service.Config{
		StoreDir: t.TempDir(),
		Workers:  2,
		QueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	defer func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		bodies[i] = driveDirect(t, hts.URL, s)
	}
	return obs.FoldDigest(bodyDigests(bodies))
}

// driveDirect runs one spec against a bare daemon URL.
func driveDirect(t *testing.T, base string, s *service.JobSpec) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	body, _, err := service.Client{Base: base}.Drive(ctx, s.Key(), payload, service.DriveOpts{})
	if err != nil {
		t.Fatalf("job %s: %v", s.Key()[:8], err)
	}
	return body
}

// bodyDigests hashes each result body for obs.FoldDigest.
func bodyDigests(bodies [][]byte) [][32]byte {
	out := make([][32]byte, len(bodies))
	for i, b := range bodies {
		out[i] = sha256.Sum256(b)
	}
	return out
}

// TestTopologyEquivalenceMatrix is the cross-topology digest matrix:
// the same seeded mix served by one daemon, or routed across 1, 2, or
// 4 shards at replication 1 or 2, must fold to byte-identical
// digests. This is the cluster's core determinism contract — topology
// decides where work runs, never what it computes.
func TestTopologyEquivalenceMatrix(t *testing.T) {
	specs := testSpecs(t, 12)
	want := baselineDigest(t, specs)

	cases := []struct {
		shards, replicas int
	}{
		{1, 1},
		{2, 1},
		{2, 2},
		{4, 1},
		{4, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("N%d_R%d", tc.shards, tc.replicas), func(t *testing.T) {
			set := newShardSet(t, tc.shards)
			rt, _ := newTestRouter(t, set, func(c *Config) {
				c.Replicas = tc.replicas
			})
			got := driveRouter(t, rt, specs)
			if got != want {
				t.Fatalf("digest diverged from single-daemon baseline:\n  N=%d R=%d: %s\n  baseline: %s",
					tc.shards, tc.replicas, got, want)
			}
			s := rt.StatsNow()
			if s.Routes != uint64(len(specs)) {
				t.Fatalf("routes = %d, want %d", s.Routes, len(specs))
			}
		})
	}
}

// TestWarmRoutingSecondPass pins warm-cache-aware routing: after one
// full pass (with R=2 replication settled by Shutdown), a fresh router
// over the same shards must serve every job from a shard store — all
// warm hits, no recomputation — and fold the same digest.
func TestWarmRoutingSecondPass(t *testing.T) {
	specs := testSpecs(t, 8)
	want := baselineDigest(t, specs)
	set := newShardSet(t, 3)

	rt1, client1 := newTestRouter(t, set, func(c *Config) { c.Replicas = 2 })
	if got := driveRouter(t, rt1, specs); got != want {
		t.Fatalf("cold pass digest = %s, want %s", got, want)
	}
	// Shutdown waits for the async replica pushes, so every key is on
	// all of its ring owners before the second pass starts.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client1.CloseIdleConnections()

	rt2, _ := newTestRouter(t, set, func(c *Config) { c.Replicas = 2 })
	if got := driveRouter(t, rt2, specs); got != want {
		t.Fatalf("warm pass digest = %s, want %s", got, want)
	}
	s := rt2.StatsNow()
	if s.WarmHits != uint64(len(specs)) {
		t.Fatalf("warm pass: %d/%d warm hits; stats %+v", s.WarmHits, len(specs), s)
	}
}

// TestGateCachedResubmit pins the gate-level cache: a resubmission of
// a completed spec answers 200/done from gate memory without touching
// any shard.
func TestGateCachedResubmit(t *testing.T) {
	set := newShardSet(t, 2)
	rt, _ := newTestRouter(t, set, nil)
	spec := testSpecs(t, 1)[0]
	driveOne(t, rt, spec)

	before := set.injs[0].Served() + set.injs[1].Served()
	if st, code := submit(t, rt.Handler(), spec); code != http.StatusOK || st.Status != service.StateDone {
		t.Fatalf("resubmit %s: HTTP %d %+v", spec.Key()[:8], code, st)
	}
	if after := set.injs[0].Served() + set.injs[1].Served(); after != before {
		t.Fatalf("cached resubmit reached the shards (%d new requests)", after-before)
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// The gate tests exercise the vcgate HTTP surface end to end — a real
// router over real shards, reached through Router.Handler() — so the
// wire contract vcload and scripts depend on is pinned, not implied.

func gateServer(t *testing.T, set *shardSet, mut func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	rt, _ := newTestRouter(t, set, mut)
	hts := httptest.NewServer(rt.Handler())
	t.Cleanup(hts.Close)
	return rt, hts
}

// TestGateLifecycleOverHTTP drives submit → poll → fetch through the
// gate's HTTP surface and pins the bytes against a direct shard run:
// the gate is transparent, byte for byte.
func TestGateLifecycleOverHTTP(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	want := baselineDigest(t, []*service.JobSpec{spec})

	set := newShardSet(t, 2)
	_, hts := gateServer(t, set, nil)

	payload, _ := json.Marshal(spec)
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", resp.StatusCode, st.Error)
	}
	if st.ID != spec.Key() {
		t.Fatalf("gate id %s != spec key %s", st.ID, spec.Key())
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		r2, err := http.Get(hts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var now service.JobStatus
		json.NewDecoder(r2.Body).Decode(&now)
		r2.Body.Close()
		if now.Status == service.StateDone {
			break
		}
		if now.Status == service.StateFailed {
			t.Fatalf("job failed: %s", now.Error)
		}
		time.Sleep(time.Millisecond)
	}

	body := driveDirectFetch(t, hts.URL, st.ID)
	if got := obs.FoldDigest(bodyDigests([][]byte{body})); got != want {
		t.Fatalf("gate-served bytes diverge from direct run:\n  got  %s\n  want %s", got, want)
	}
}

// TestGateStatusBytesEqualDaemon pins "gate clients are daemon clients"
// byte for byte: for the same job state, every /v1/jobs* answer of the
// gate — code and body — equals a bare daemon's. Both sides marshal
// service.JobStatus through service.WriteJSON, so omitempty cannot
// drift between them again.
func TestGateStatusBytesEqualDaemon(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	payload, _ := json.Marshal(spec)
	id := spec.Key()
	unknown := strings.Repeat("0", 64)

	daemon := newShardSet(t, 1).shards[0].URL
	_, hts := gateServer(t, newShardSet(t, 2), nil)
	gate := hts.URL

	ask := func(base, method, path string, body []byte) string {
		t.Helper()
		req, _ := http.NewRequest(method, base+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.Status + " " + buf.String()
	}
	same := func(state, method, path string, body []byte) {
		t.Helper()
		d, g := ask(daemon, method, path, body), ask(gate, method, path, body)
		if d != g {
			t.Errorf("%s: gate differs from daemon:\n  daemon %s  gate   %s", state, d, g)
		}
	}

	same("cold submit", "POST", "/v1/jobs", payload)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, base := range []string{daemon, gate} {
		if _, _, err := (service.Client{Base: base}).Drive(ctx, id, payload, service.DriveOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	same("status of a done job", "GET", "/v1/jobs/"+id, nil)
	same("resubmit of a done job", "POST", "/v1/jobs", payload)
	same("status of an unknown job", "GET", "/v1/jobs/"+unknown, nil)
	same("result of an unknown job", "GET", "/v1/results/"+unknown, nil)
	same("malformed submit", "POST", "/v1/jobs", []byte("{not json"))
}

func driveDirectFetch(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch: HTTP %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestGateStatelessRestart pins the fetch-through path: a fresh gate
// (empty memory, no drive history) over shards that already hold a
// result must answer both the status poll (via the HEAD ownership
// probe) and the result fetch (via proxy) — gate restarts don't orphan
// completed work.
func TestGateStatelessRestart(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	set := newShardSet(t, 2)

	rt1, client1 := newTestRouter(t, set, nil)
	wantBody := driveOne(t, rt1, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client1.CloseIdleConnections()

	_, hts := gateServer(t, set, nil) // fresh gate, cold memory
	id := spec.Key()

	r1, err := http.Get(hts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	json.NewDecoder(r1.Body).Decode(&st)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK || st.Status != service.StateDone || !st.Cached {
		t.Fatalf("restarted gate status: HTTP %d %+v, want 200/done/cached", r1.StatusCode, st)
	}

	if got := driveDirectFetch(t, hts.URL, id); !bytes.Equal(got, wantBody) {
		t.Fatal("restarted gate proxied different bytes than the original drive")
	}
}

// TestGateStatsAndMetrics pins the introspection surface: the stats
// document counts routes, /v1/cluster/shards lists every shard row,
// and /metrics exposes the gate gauges on the shared Prometheus path.
func TestGateStatsAndMetrics(t *testing.T) {
	specs := testSpecs(t, 3)
	set := newShardSet(t, 2)
	rt, hts := gateServer(t, set, nil)
	for _, s := range specs {
		driveOne(t, rt, s)
	}

	resp, err := http.Get(hts.URL + "/v1/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Routes != 3 {
		t.Fatalf("stats.routes = %d, want 3", stats.Routes)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("stats lists %d shards, want 2", len(stats.Shards))
	}
	var routed uint64
	for _, row := range stats.Shards {
		routed += row.Routes
		if !row.Alive {
			t.Fatalf("healthy shard %s reported dead", row.Name)
		}
	}
	if routed != 3 {
		t.Fatalf("per-shard routes sum to %d, want 3", routed)
	}

	r2, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r2.Body)
	r2.Body.Close()
	body := buf.String()
	for _, want := range []string{"vcprof_gate_routes_total", "vcprof_gate_shard_latency_ms"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestGateRejectsBadSpecs pins input validation at the edge: malformed
// JSON and invalid specs never reach a shard.
func TestGateRejectsBadSpecs(t *testing.T) {
	set := newShardSet(t, 1)
	_, hts := gateServer(t, set, nil)

	before := set.injs[0].Served()
	for _, payload := range []string{
		`{not json`,
		`{"kind":"encode","family":"no-such-encoder","clip":"desktop"}`,
		`{"kind":"teleport"}`,
	} {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q: HTTP %d, want 400", payload, resp.StatusCode)
		}
	}
	if after := set.injs[0].Served(); after != before {
		t.Fatalf("invalid specs reached the shard (%d requests)", after-before)
	}
}

// TestGateSaturation429 pins admission: past MaxInflight concurrent
// drives the gate answers 429 with Retry-After, mirroring vcprofd.
func TestGateSaturation429(t *testing.T) {
	set := newShardSet(t, 1)
	specs := testSpecs(t, 4)
	rt, hts := gateServer(t, set, func(c *Config) { c.MaxInflight = 1 })

	// Stall the shard so the first drive holds the only inflight slot.
	set.injs[0].StallNext(1, 2*time.Second)
	if _, _, code, err := rt.Submit(specs[0]); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d err=%v", code, err)
	}

	payload, _ := json.Marshal(specs[1])
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	waitDone(t, rt, specs[0].Key(), 30*time.Second)
}

// TestShardRegistryEndpoint pins the shard-side protocol the router
// probes: GET /v1/registry names the shard and reports serving state.
func TestShardRegistryEndpoint(t *testing.T) {
	set := newShardSet(t, 1)
	resp, err := http.Get(set.shards[0].URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info service.RegistryInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "s0" || info.State != "serving" {
		t.Fatalf("registry = %+v, want name=s0 state=serving", info)
	}
}

// TestShardReplicaPut pins the replica-write endpoint: a valid put
// lands in the store and is idempotent; malformed keys are rejected.
func TestShardReplicaPut(t *testing.T) {
	set := newShardSet(t, 1)
	base := set.shards[0].URL
	key := testSpecs(t, 1)[0].Key()
	body := []byte(`{"replica":"bytes"}`)

	for i := 0; i < 2; i++ { // twice: the re-put must be a no-op 204
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/results/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put %d: HTTP %d, want 204", i, resp.StatusCode)
		}
	}
	got, ok, err := set.srvs[0].Store().Get(key)
	if err != nil || !ok || !bytes.Equal(got, body) {
		t.Fatalf("store after replica put: ok=%v err=%v bytes-match=%v", ok, err, bytes.Equal(got, body))
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/results/not-a-key", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-key put: HTTP %d, want 400", resp.StatusCode)
	}

	// HEAD ownership probe: present key 200, absent key 404.
	for probe, want := range map[string]int{key: http.StatusOK, strings.Repeat("0", 64): http.StatusNotFound} {
		req, _ := http.NewRequest(http.MethodHead, base+"/v1/results/"+probe, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("head %s: HTTP %d, want %d", probe[:8], resp.StatusCode, want)
		}
	}
}

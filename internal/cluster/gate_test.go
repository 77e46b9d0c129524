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

// The gate tests exercise the gate's HTTP surface end to end — a real
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
	same("abandon of an unknown job", "DELETE", "/v1/jobs/"+unknown, nil)
	same("delete of an unknown session", "DELETE", "/v1/sessions/"+unknown, nil)
	same("stats of an unknown session", "GET", "/v1/sessions/"+unknown+"/stats", nil)
	same("health", "GET", "/healthz", nil)
}

// TestSharedRoutesServedByBoth walks the shared route list against a
// daemon's handler and a gate's: each mounts every route, so none
// answers 405 or the mux's bare 404.
func TestSharedRoutesServedByBoth(t *testing.T) {
	set := newShardSet(t, 1)
	rt, _ := newTestRouter(t, set, nil)
	for name, h := range map[string]http.Handler{"daemon": set.srvs[0].Handler(), "gate": rt.Handler()} {
		for _, pattern := range service.SharedRoutes() {
			method, path, _ := strings.Cut(pattern, " ")
			code, body := call(h, method, strings.ReplaceAll(path, "{id}", "x"), nil)
			if code == http.StatusMethodNotAllowed || string(body) == "404 page not found\n" {
				t.Errorf("%s: %s answers HTTP %d %q", name, pattern, code, body)
			}
		}
	}
}

// TestGateDeleteAbandonsShardJob mirrors service/abandon_test.go through
// the gate: the only submitter's DELETE at the gate cancels the drive,
// the drive gives its interest back to the shard on the way out, and the
// shard stops computing the job for nobody.
func TestGateDeleteAbandonsShardJob(t *testing.T) {
	set := newShardSet(t, 1)
	_, hts := gateServer(t, set, nil)
	long := service.JobSpec{Kind: service.KindEncode, Family: "svt-av1", Clip: "desktop",
		Frames: 64, ScaleDiv: 16, CRF: 29, Preset: 0, Threads: 1}
	long.Normalize()
	key := long.Key()
	payload, _ := json.Marshal(&long)
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Accepted: the shard is running it.
	shard := set.shards[0].URL
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if a := get(context.Background(), shard+"/v1/jobs/"+key); strings.Contains(a.body, service.StateRunning) {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("the shard never ran the job: %v", a)
		}
	}

	abandon := func() int {
		req, _ := http.NewRequest(http.MethodDelete, hts.URL+"/v1/jobs/"+key, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := abandon(); code != http.StatusNoContent {
		t.Fatalf("DELETE at the gate: HTTP %d, want 204", code)
	}
	if a := get(context.Background(), shard+"/v1/jobs/"+key+"?wait=60s"); !strings.Contains(a.body, `"failed"`) ||
		!strings.Contains(a.body, context.Canceled.Error()) {
		t.Errorf("the shard's job reads %v, want it failed by its cancellation", a)
	}
	if set.srvs[0].Store().Contains(key) {
		t.Error("the shard computed the job anyway")
	}
	if a := get(context.Background(), hts.URL+"/v1/jobs/"+key+"?wait=60s"); !strings.Contains(a.body, `"failed"`) {
		t.Errorf("the gate's job reads %v, want it failed", a)
	}
	if code := abandon(); code != http.StatusNotFound {
		t.Errorf("second DELETE at the gate: HTTP %d, want 404", code)
	}
}

// TestGateDeleteSessionFreesShardSlot: a session deleted at the gate
// gives its slot back on the pinned shard, so a one-shard gate can open
// and close more sessions than the shard's 64-slot table holds.
func TestGateDeleteSessionFreesShardSlot(t *testing.T) {
	_, hts := gateServer(t, newShardSet(t, 1), nil)
	create := func() (service.SessionCreateResp, int) {
		var created service.SessionCreateResp
		code := gatePostJSON(t, http.DefaultClient, hts.URL+"/v1/sessions", service.SessionCreateReq{Spec: liveSessionSpec()}, &created)
		return created, code
	}
	var last string
	for i := 0; i < 65; i++ {
		created, code := create()
		if code != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d", i, code)
		}
		req, _ := http.NewRequest(http.MethodDelete, hts.URL+"/v1/sessions/"+created.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE of session %d: HTTP %d, want 204", i, resp.StatusCode)
		}
		last = created.ID
	}
	if _, code := create(); code != http.StatusCreated {
		t.Fatalf("create after 65 deleted sessions: HTTP %d, want 201", code)
	}
	if a := get(context.Background(), hts.URL+"/v1/sessions/"+last+"/stats"); a.code != http.StatusNotFound {
		t.Errorf("stats of a deleted session: %v, want 404", a)
	}
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
	if st, code := submit(t, rt.Handler(), specs[0]); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d %+v", code, st)
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
	fetchDone(t, rt.Handler(), specs[0].Key())
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

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"vcprof/internal/harness"
	"vcprof/internal/obs"
)

// testServer spins up a Server over httptest. start=false leaves the
// worker pool idle, which makes queue states (queued, saturated,
// deduplicated) deterministic to assert.
func testServer(t *testing.T, cfg Config, start bool) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	srv, err := NewServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		srv.Start()
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hts
}

func submit(t *testing.T, base string, spec JobSpec) (JobStatus, int) {
	t.Helper()
	payload, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	st, code, err := Client{Base: base}.Submit(context.Background(), payload, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st, code
}

func getStatus(t *testing.T, base, id string) (JobStatus, int) {
	t.Helper()
	st, code, err := Client{Base: base}.status(context.Background(), http.MethodGet, base+"/v1/jobs/"+id, nil, "")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	return st, code
}

func pollDone(t *testing.T, base, id string) {
	t.Helper()
	pollDoneWithin(t, base, id, 2*time.Minute)
}

// pollDoneWithin is pollDone with an explicit completion budget, for
// tests that drive experiment jobs (an order of magnitude more compute
// than an encode job, and another order slower under -race).
func pollDoneWithin(t *testing.T, base, id string, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("poll: HTTP %d (%s)", code, st.Error)
		}
		switch st.Status {
		case StateDone:
			return
		case StateFailed:
			t.Fatalf("job %s failed: %s", id[:8], st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id[:8])
}

func fetchResult(t *testing.T, base, id string) ([]byte, int) {
	t.Helper()
	body, err := Client{Base: base}.Result(context.Background(), id)
	var se *StatusError
	if errors.As(err, &se) {
		return []byte(se.Body), se.Code
	}
	if err != nil {
		t.Fatal(err)
	}
	return body, http.StatusOK
}

// TestLifecycleByteIdenticalToDirectRun drives submit → poll → fetch
// over real HTTP and pins the served bytes against a direct in-process
// Execute of the same spec: transport, queue, worker pool and store may
// not perturb a single byte.
func TestLifecycleByteIdenticalToDirectRun(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 2}, true)

	spec := validEncodeSpec()
	spec.Normalize()
	st, code := submit(t, hts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, st.Error)
	}
	if st.ID != spec.Key() {
		t.Fatalf("server id %s != spec key %s", st.ID, spec.Key())
	}
	pollDone(t, hts.URL, st.ID)
	body, code := fetchResult(t, hts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("fetch: HTTP %d: %s", code, body)
	}

	direct, err := Execute(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := direct.Encode(); !bytes.Equal(body, want) {
		t.Fatalf("served result differs from direct run:\nhttp:   %q\ndirect: %q", body, want)
	}

	// Resubmitting a finished job answers from the store, immediately.
	st2, code2 := submit(t, hts.URL, spec)
	if code2 != http.StatusOK || !st2.Cached || st2.Status != StateDone {
		t.Fatalf("resubmit: HTTP %d %+v, want cached done", code2, st2)
	}
}

// TestLifecycleExperimentMatchesCLI pins an experiment job's output to
// the exact text `repro` prints for the same experiment and scale.
func TestLifecycleExperimentMatchesCLI(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1}, true)
	spec := JobSpec{Kind: KindExperiment, Experiment: "fig1", Quick: true}
	spec.Normalize()

	st, code := submit(t, hts.URL, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d (%s)", code, st.Error)
	}
	pollDone(t, hts.URL, st.ID)
	body, code := fetchResult(t, hts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("fetch: HTTP %d", code)
	}
	res, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := harness.RunExperiment(context.Background(), "fig1", harness.QuickScale(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, tab := range rep.Tables {
		want.WriteString(tab.Render())
		want.WriteByte('\n')
	}
	if res.Output != want.String() {
		t.Fatalf("served experiment output differs from CLI rendering:\nhttp: %q\ncli:  %q",
			res.Output, want.String())
	}
}

// TestSingleflightDuplicateSubmit holds workers idle so a duplicate
// submission deterministically finds its twin in flight: both get the
// same id, one queue slot is consumed, and one stored object serves
// both.
func TestSingleflightDuplicateSubmit(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	spec := validEncodeSpec()
	spec.Normalize()

	st1, code1 := submit(t, hts.URL, spec)
	if code1 != http.StatusAccepted || st1.Status != StateQueued {
		t.Fatalf("first submit: HTTP %d %+v", code1, st1)
	}
	st2, code2 := submit(t, hts.URL, spec)
	if code2 != http.StatusAccepted {
		t.Fatalf("duplicate submit: HTTP %d %+v", code2, st2)
	}
	if st1.ID != st2.ID {
		t.Fatalf("duplicate got a different id: %s vs %s", st1.ID, st2.ID)
	}
	if d := srv.q.depth(); d != 1 {
		t.Fatalf("queue depth = %d after duplicate submit, want 1", d)
	}

	srv.Start()
	pollDone(t, hts.URL, st1.ID)
	if n := srv.Store().Stats().Objects; n != 1 {
		t.Errorf("store holds %d objects, want 1", n)
	}
	b1, _ := fetchResult(t, hts.URL, st1.ID)
	b2, _ := fetchResult(t, hts.URL, st2.ID)
	if !bytes.Equal(b1, b2) {
		t.Error("duplicate submissions served different bytes")
	}
}

// TestAdmissionControl429 saturates a tiny queue with the pool idle and
// checks the shed path: 429 plus Retry-After, job not tracked, and the
// same spec admitted cleanly once capacity returns.
func TestAdmissionControl429(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, QueueCap: 1}, false)
	a := validEncodeSpec()
	a.Normalize()
	if _, code := submit(t, hts.URL, a); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}

	b := validEncodeSpec()
	b.CRF = 30 // different job
	b.Normalize()
	payload, _ := json.Marshal(&b)
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// The rejected job must not linger in the table as a ghost.
	if _, code := getStatus(t, hts.URL, b.Key()); code != http.StatusNotFound {
		t.Errorf("rejected job still visible: HTTP %d", code)
	}

	srv.Start()
	pollDone(t, hts.URL, a.Key())
	st, code := submit(t, hts.URL, b)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit after drain: HTTP %d (%s)", code, st.Error)
	}
	pollDone(t, hts.URL, b.Key())
}

// TestGracefulShutdown pins the drain contract: accepted work finishes,
// new work is refused with 503, and the store index reaches disk.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	srv, hts := testServer(t, Config{Workers: 2, StoreDir: dir}, true)

	var keys []string
	for _, crf := range []int{22, 26, 30} {
		spec := validEncodeSpec()
		spec.CRF = crf
		spec.Normalize()
		st, code := submit(t, hts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit crf=%d: HTTP %d", crf, code)
		}
		keys = append(keys, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Every accepted job completed and was persisted.
	for _, k := range keys {
		if !srv.Store().Contains(k) {
			t.Errorf("job %s not persisted by drain", k[:8])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("store index not flushed: %v", err)
	}

	// The HTTP surface refuses new work but still serves results.
	spec := validEncodeSpec()
	spec.CRF = 40
	spec.Normalize()
	if _, code := submit(t, hts.URL, spec); code != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: HTTP %d, want 503", code)
	}
	if body, code := fetchResult(t, hts.URL, keys[0]); code != http.StatusOK || len(body) == 0 {
		t.Errorf("result fetch after drain: HTTP %d", code)
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestWarmRestartServesFromDisk restarts the service on the same store
// directory and checks a repeat job is answered from disk — with the
// exact bytes of the first run — before any worker exists.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := validEncodeSpec()
	spec.Normalize()

	srv1, hts1 := testServer(t, Config{Workers: 1, StoreDir: dir}, true)
	st, code := submit(t, hts1.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollDone(t, hts1.URL, st.ID)
	first, _ := fetchResult(t, hts1.URL, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hts1.Close()

	// Second life: no Start() — only the disk can answer.
	_, hts2 := testServer(t, Config{Workers: 1, StoreDir: dir}, false)
	st2, code2 := submit(t, hts2.URL, spec)
	if code2 != http.StatusOK || !st2.Cached {
		t.Fatalf("warm submit: HTTP %d %+v, want cached done", code2, st2)
	}
	body, code := fetchResult(t, hts2.URL, st2.ID)
	if code != http.StatusOK {
		t.Fatalf("warm fetch: HTTP %d", code)
	}
	if !bytes.Equal(body, first) {
		t.Fatal("warm restart served different bytes than the original run")
	}
}

// TestHTTPSurfaceErrors covers the non-happy paths of the API.
func TestHTTPSurfaceErrors(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)

	// Malformed and invalid specs → 400.
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	bad := validEncodeSpec()
	bad.Family = "av2"
	if _, code := submit(t, hts.URL, bad); code != http.StatusBadRequest {
		t.Errorf("invalid spec: HTTP %d, want 400", code)
	}

	// Unknown ids → 404.
	if _, code := getStatus(t, hts.URL, strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("unknown status: HTTP %d, want 404", code)
	}
	if _, code := fetchResult(t, hts.URL, strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("unknown result: HTTP %d, want 404", code)
	}

	// A queued (never-started pool) job's result is not ready → 409.
	spec := validEncodeSpec()
	spec.Normalize()
	if _, code := submit(t, hts.URL, spec); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	if _, code := fetchResult(t, hts.URL, spec.Key()); code != http.StatusConflict {
		t.Errorf("pending result: HTTP %d, want 409", code)
	}

	// Metrics and health are always on; trace is 404 without a session.
	for path, want := range map[string]int{
		"/metrics":     http.StatusOK,
		"/healthz":     http.StatusOK,
		"/debug/trace": http.StatusNotFound,
	} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
	_ = srv
}

// TestMetricsRenders sanity-checks the human surface: counter names and
// service gauges appear.
func TestMetricsRenders(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1}, true)
	spec := validEncodeSpec()
	spec.Normalize()
	st, _ := submit(t, hts.URL, spec)
	pollDone(t, hts.URL, st.ID)

	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE vcprof_svc_jobs_submitted counter",
		"vcprof_svc_store_put_bytes",
		"vcprof_svc_queue_depth",
		"vcprof_svc_store_objects 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The submit counter is process-global, so other tests in the
	// package contribute — require a positive value, not an exact one.
	if !regexp.MustCompile(`(?m)^vcprof_svc_jobs_submitted [1-9]`).MatchString(text) {
		t.Error("/metrics missing a positive vcprof_svc_jobs_submitted")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q not Prometheus text v0.0.4", ct)
	}
}

// TestTraceExport checks /debug/trace emits a parseable Chrome trace
// with the per-worker lanes when a session is attached.
func TestTraceExport(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 2, Obs: obs.NewSession()}, true)
	spec := validEncodeSpec()
	spec.Normalize()
	st, _ := submit(t, hts.URL, spec)
	pollDone(t, hts.URL, st.ID)

	resp, err := http.Get(hts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, body)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if name, _ := ev["name"].(string); name == "job/done" {
			found = true
		}
	}
	if !found {
		t.Error("trace has no job/done span")
	}
}

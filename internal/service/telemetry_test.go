package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vcprof/internal/harness"
	"vcprof/internal/obs"
	"vcprof/internal/uarch/topdown"
)

// resetTelemetryState clears every process-global observation store so
// a test observes only its own work.
func resetTelemetryState() {
	harness.ResetCellCache()
	harness.ResetClipCache()
	obs.Reset()
}

// getBody fetches a URL and returns body and status.
func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// runJobToDone submits a spec and waits for completion. The budget is
// generous because these tests run experiment jobs, which are far
// slower than encodes and slower again under the race detector.
func runJobToDone(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	spec.Normalize()
	st, code := submit(t, base, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d (%s)", code, st.Error)
	}
	pollDoneWithin(t, base, st.ID, 10*time.Minute)
	return st.ID
}

// quickExperimentSpec is a fig4-class job: perf.Stat cells, so it
// exercises the streaming top-down producer end to end.
func quickExperimentSpec() JobSpec {
	return JobSpec{Kind: KindExperiment, Experiment: "fig4", Quick: true}
}

// TestMetricsRestartByteStable pins the warm-restart exposition
// contract from both directions. A daemon restarted onto a warm store
// recomputes nothing, so its deterministic exposition must equal the
// do-nothing baseline byte for byte (no timestamps, no process
// identity, no registration-order leakage); and re-running the same
// work from a cold state must reproduce the first run's exposition
// exactly.
func TestMetricsRestartByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs harness cells; skipped in -short")
	}
	storeDir := t.TempDir()
	detMetrics := func(hts *httptest.Server) string {
		body, code := getBody(t, hts.URL+"/metrics?volatile=0")
		if code != http.StatusOK {
			t.Fatalf("/metrics: HTTP %d", code)
		}
		return string(body)
	}
	runGen := func(warm bool) (baseline, loaded string) {
		resetTelemetryState()
		srv, err := NewServer(context.Background(), Config{
			StoreDir: storeDir,
			Workers:  2,
			// Experiment jobs overrun the 2-minute default budget
			// under the race detector.
			DefaultTimeout: 15 * time.Minute,
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
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}()
		baseline = detMetrics(hts)
		id := runJobToDone(t, hts.URL, quickExperimentSpec())
		if warm && !srv.Store().Contains(id) {
			t.Fatal("warm generation missing stored result")
		}
		return baseline, detMetrics(hts)
	}

	base1, loaded1 := runGen(false)
	if base1 == loaded1 {
		t.Fatal("running a job left no trace in the deterministic exposition")
	}
	// Generation 2: same store, warm. The job is satisfied from the
	// store without recomputation, so the exposition must stay at the
	// fresh-process baseline — and that baseline must be byte-identical
	// across process generations.
	base2, loaded2 := runGen(true)
	if base2 != base1 {
		t.Errorf("baseline exposition differs across restarts:\n%s", firstLineDiff(base1, base2))
	}
	if loaded2 != base2 {
		t.Errorf("warm restart recomputed work (exposition moved off baseline):\n%s", firstLineDiff(base2, loaded2))
	}

	// Generation 3: cold store, same work — the loaded exposition must
	// reproduce generation 1 exactly.
	storeDir = t.TempDir()
	_, loaded3 := runGen(false)
	if loaded3 != loaded1 {
		t.Errorf("cold re-run exposition differs:\n%s", firstLineDiff(loaded1, loaded3))
	}
}

func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strings.TrimSpace(w) + " != " + strings.TrimSpace(g)
		}
	}
	return "(identical?)"
}

// TestTopdownEndpoints drives a fig4-class job and checks both the
// per-job and the aggregate streaming top-down surfaces.
func TestTopdownEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs harness cells; skipped in -short")
	}
	resetTelemetryState()
	_, hts := testServer(t, Config{Workers: 2, DefaultTimeout: 15 * time.Minute}, true)

	if _, code := getBody(t, hts.URL+"/v1/jobs/nonexistent/topdown"); code != http.StatusNotFound {
		t.Errorf("unknown job topdown: HTTP %d, want 404", code)
	}

	id := runJobToDone(t, hts.URL, quickExperimentSpec())
	for _, path := range []string{"/v1/jobs/" + id + "/topdown", "/v1/telemetry/topdown"} {
		body, code := getBody(t, hts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, code, body)
		}
		var wire struct {
			ID         string  `json:"id"`
			State      string  `json:"state"`
			Retiring   float64 `json:"retiring"`
			BadSpec    float64 `json:"bad_spec"`
			Frontend   float64 `json:"frontend"`
			Backend    float64 `json:"backend"`
			TotalSlots uint64  `json:"total_slots"`
			Commits    uint64  `json:"commits"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if wire.TotalSlots == 0 || wire.Commits == 0 {
			t.Fatalf("%s: no slots streamed: %+v", path, wire)
		}
		sum := wire.Retiring + wire.BadSpec + wire.Frontend + wire.Backend
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v, want 1±0.001", path, sum)
		}
		if wire.Retiring <= 0 {
			t.Errorf("%s: retiring fraction is zero", path)
		}
	}
	body, _ := getBody(t, hts.URL+"/v1/jobs/"+id+"/topdown")
	if !strings.Contains(string(body), `"state":"done"`) {
		t.Errorf("completed job state not done: %s", body)
	}
}

// TestSeriesEndpoint pins the ring-buffer surface: 404 when sampling
// is off, windowed JSON rows when on.
func TestSeriesEndpoint(t *testing.T) {
	_, off := testServer(t, Config{Workers: 1}, true)
	if _, code := getBody(t, off.URL+"/v1/telemetry/series"); code != http.StatusNotFound {
		t.Fatalf("series with sampling disabled: HTTP %d, want 404", code)
	}

	_, hts := testServer(t, Config{Workers: 1, SampleInterval: 2 * time.Millisecond}, true)
	var win struct {
		Names   []string    `json:"names"`
		TimesMS []int64     `json:"times_ms"`
		Samples [][]float64 `json:"samples"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, code := getBody(t, hts.URL+"/v1/telemetry/series")
		if code != http.StatusOK {
			t.Fatalf("series: HTTP %d", code)
		}
		if err := json.Unmarshal(body, &win); err != nil {
			t.Fatal(err)
		}
		if len(win.TimesMS) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no rows")
		}
		time.Sleep(5 * time.Millisecond)
	}
	found := false
	for _, n := range win.Names {
		if n == "svc.queue.depth" {
			found = true
		}
	}
	if !found {
		t.Errorf("series names missing svc.queue.depth: %v", win.Names)
	}
	for i, row := range win.Samples {
		if len(row) != len(win.Names) {
			t.Fatalf("row %d has %d values for %d names", i, len(row), len(win.Names))
		}
		if i > 0 && win.TimesMS[i] < win.TimesMS[i-1] {
			t.Fatalf("series times not ordered: %v", win.TimesMS)
		}
	}
	if body, code := getBody(t, hts.URL+"/v1/telemetry/series?window=1"); code != http.StatusOK {
		t.Fatalf("window=1: HTTP %d", code)
	} else {
		var w1 struct {
			TimesMS []int64 `json:"times_ms"`
		}
		if err := json.Unmarshal(body, &w1); err != nil {
			t.Fatal(err)
		}
		if len(w1.TimesMS) != 1 {
			t.Errorf("window=1 returned %d rows", len(w1.TimesMS))
		}
	}
	if _, code := getBody(t, hts.URL+"/v1/telemetry/series?window=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad window: HTTP %d, want 400", code)
	}
}

// TestProfileEndpoint pins the continuous-profiler surface: 404
// without tracing; with tracing, a flat table by default and folded
// stacks (including adopted per-job spans) with ?fold=1.
func TestProfileEndpoint(t *testing.T) {
	_, off := testServer(t, Config{Workers: 1}, true)
	if _, code := getBody(t, off.URL+"/debug/profile"); code != http.StatusNotFound {
		t.Fatalf("profile without tracing: HTTP %d, want 404", code)
	}

	resetTelemetryState()
	_, hts := testServer(t, Config{Workers: 1, Obs: obs.NewSession()}, true)
	runJobToDone(t, hts.URL, validEncodeSpec())

	body, code := getBody(t, hts.URL+"/debug/profile?fold=1")
	if code != http.StatusOK {
		t.Fatalf("folded profile: HTTP %d", code)
	}
	folded := strings.TrimSpace(string(body))
	if folded == "" {
		t.Fatal("folded profile empty after a traced job")
	}
	for _, line := range strings.Split(folded, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("folded line %q not `stack count`", line)
		}
	}
	if !strings.Contains(folded, "stage/") {
		t.Errorf("folded stacks missing adopted per-job encode-stage lanes:\n%s", folded)
	}
	flat, code := getBody(t, hts.URL+"/debug/profile")
	if code != http.StatusOK || len(flat) == 0 {
		t.Fatalf("flat profile: HTTP %d, %d bytes", code, len(flat))
	}
}

// TestExecuteObservedBytesInvariant is the telemetry-transparency
// acceptance check in unit form: the result document is byte-identical
// with observation fully on (span session + topdown accumulators on
// the context) and fully off.
func TestExecuteObservedBytesInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs harness cells; skipped in -short")
	}
	for _, spec := range []JobSpec{validEncodeSpec(), quickExperimentSpec()} {
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		resetTelemetryState()
		plain, err := Execute(context.Background(), &spec)
		if err != nil {
			t.Fatal(err)
		}
		resetTelemetryState()
		ctx := topdown.WithAccumulator(context.Background(), topdown.NewAccumulator())
		ctx = topdown.WithAccumulator(ctx, topdown.NewAccumulator())
		observed, err := ExecuteObserved(ctx, &spec, obs.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		if string(plain.Encode()) != string(observed.Encode()) {
			t.Errorf("spec %s: result bytes differ with telemetry on", spec.Key()[:12])
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vcprof/internal/service"
)

func testSpec(t *testing.T) *service.JobSpec {
	t.Helper()
	s := &service.JobSpec{
		Kind: service.KindEncode, Family: "x264", Clip: "desktop",
		Frames: 1, ScaleDiv: 32, CRF: 24, Preset: 2,
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// slowAdmitServer answers the first reject429 submits with 429 (each
// costing the client its 25ms backoff), then accepts and holds the
// waiting result fetch until serveDelay after the accept, as a daemon
// holds it until the job ends. The served latency a correct client
// reports is ~serveDelay — the 429 backoff sleeps must not leak into it.
// *held gets how long the server held the fetch.
func slowAdmitServer(t *testing.T, spec *service.JobSpec, reject429 int, serveDelay time.Duration, held *time.Duration) *httptest.Server {
	t.Helper()
	id := spec.Key()
	var submits int
	var acceptedAt time.Time
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits++
		if submits <= reject429 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "saturated"})
			return
		}
		acceptedAt = time.Now()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id, "status": service.StateQueued})
	})
	mux.HandleFunc("GET /v1/results/{id}", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case <-time.After(serveDelay - time.Since(acceptedAt)):
		case <-r.Context().Done():
		}
		*held = time.Since(start)
		fmt.Fprint(w, `{"result":"bytes"}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestDriveJobSplitsRetriesFromServedLatency is the regression test
// for the latency-conflation bug: under 429 retries, the reported
// served latency must cover only accepted-submit → result, while the
// retries land in their own counter. Before the split, three 429s
// added ~75ms of backoff sleep to the "latency" of a 30ms job.
func TestDriveJobSplitsRetriesFromServedLatency(t *testing.T) {
	spec := testSpec(t)
	const rejects = 3
	const serveDelay = 30 * time.Millisecond
	var held time.Duration
	srv := slowAdmitServer(t, spec, rejects, serveDelay, &held)

	body, ds, err := driveJob(context.Background(), service.Client{Base: srv.URL, HTTP: srv.Client()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || ds.Cached {
		t.Fatalf("body=%d bytes cached=%v, want bytes and not cached", len(body), ds.Cached)
	}
	if ds.Retries429 != rejects {
		t.Fatalf("retries_429 = %d, want %d", ds.Retries429, rejects)
	}
	if ds.Reconnects != 0 {
		t.Fatalf("reconnects = %d, want 0", ds.Reconnects)
	}
	// The served clock must exclude the ~75ms of 429 backoff: it has
	// to cover the time the server held the fetch (which, unlike
	// serveDelay, lies wholly inside the client's clock) but stay well
	// under delay + backoffs.
	if ds.Served < held {
		t.Fatalf("served latency %v < %v the server held the fetch — clock started too late", ds.Served, held)
	}
	if max := serveDelay + 2*rejects*25*time.Millisecond; ds.Served >= max {
		t.Fatalf("served latency %v >= %v — 429 backoff leaked into the served clock", ds.Served, max)
	}
}

// flakyTransport fails the first n round-trips at the transport level
// (connect-error shaped), then delegates.
type flakyTransport struct {
	fails int
	next  http.RoundTripper
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.fails > 0 {
		f.fails--
		return nil, fmt.Errorf("dial tcp: connection refused (injected)")
	}
	return f.next.RoundTrip(req)
}

// TestDriveJobCountsReconnectsSeparately pins the transport-retry
// path: connect errors during submit are retried up to maxReconnects,
// counted in their own field, and never reach the latency clock.
func TestDriveJobCountsReconnectsSeparately(t *testing.T) {
	spec := testSpec(t)
	var held time.Duration
	srv := slowAdmitServer(t, spec, 0, time.Millisecond, &held)

	client := &http.Client{Transport: &flakyTransport{fails: 2, next: http.DefaultTransport}}
	_, ds, err := driveJob(context.Background(), service.Client{Base: srv.URL, HTTP: client}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Reconnects != 2 {
		t.Fatalf("reconnects = %d, want 2", ds.Reconnects)
	}
	if ds.Retries429 != 0 {
		t.Fatalf("retries_429 = %d, want 0", ds.Retries429)
	}
}

// TestDriveJobGivesUpAfterMaxReconnects pins the bound: persistent
// connect failure fails the job instead of retrying forever.
func TestDriveJobGivesUpAfterMaxReconnects(t *testing.T) {
	spec := testSpec(t)
	client := &http.Client{Transport: &flakyTransport{fails: 1 << 30, next: http.DefaultTransport}}
	_, ds, err := driveJob(context.Background(), service.Client{Base: "http://127.0.0.1:0", HTTP: client}, spec)
	if err == nil {
		t.Fatal("driveJob succeeded against a dead transport")
	}
	if ds.Reconnects != maxReconnects {
		t.Fatalf("reconnects = %d, want %d", ds.Reconnects, maxReconnects)
	}
}

// TestBuildMixDeterministic pins the mix as a pure function of its
// parameters — the property every digest comparison rests on.
func TestBuildMixDeterministic(t *testing.T) {
	a := buildMix(7, 50, 2, 32, 4, 15, false)
	b := buildMix(7, 50, 2, 32, 4, 15, false)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("mix lengths %d/%d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("mix diverged at %d: %s vs %s", i, a[i].Key()[:8], b[i].Key()[:8])
		}
	}
	c := buildMix(8, 50, 2, 32, 4, 15, false)
	same := 0
	for i := range a {
		if a[i].Key() == c[i].Key() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds drew an identical mix")
	}
}

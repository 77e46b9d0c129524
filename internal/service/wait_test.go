package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vcprof/internal/harness"
)

// The waiter wall: a GET of either lifecycle endpoint with ?wait= is
// released by exactly four events — the job's terminal transition, its
// own deadline, the client going away, and (through the terminal
// transition) the drain — and then answers what a plain GET answers.
// The tests drive the job table by hand where they need the instant of
// the transition, so every latency is measured against the transition's
// own stamp, never against a sleep.

type answer struct {
	code int
	body string
	at   time.Time
}

func (a answer) String() string { return fmt.Sprintf("HTTP %d %s", a.code, strings.TrimSpace(a.body)) }

// get answers one GET; a transport error is reported as code 0.
func get(ctx context.Context, url string) answer {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return answer{body: err.Error()}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return answer{body: err.Error(), at: time.Now()}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return answer{code: resp.StatusCode, body: string(body), at: time.Now()}
}

// parked starts one GET per url and checks, a moment later, that none
// has answered: they are parked. The returned function collects the
// answers in url order.
func parked(t *testing.T, urls ...string) func() []answer {
	t.Helper()
	out := make([]answer, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			out[i] = get(context.Background(), u)
		}(i, u)
	}
	time.Sleep(30 * time.Millisecond)
	for i := range out {
		if !out[i].at.IsZero() {
			t.Fatalf("GET %s answered before the job finished: %v", urls[i], out[i])
		}
	}
	return func() []answer { wg.Wait(); return out }
}

// trackQueued registers spec in the job table the way an accepted
// submit does, without a worker ever seeing it.
func trackQueued(t *testing.T, srv *Server, crf int) (*Job, string) {
	t.Helper()
	spec := validEncodeSpec()
	spec.CRF = crf
	spec.Normalize()
	j, _, joined := srv.api.jobs.getOrAdd(spec, spec.Key(), "")
	if joined {
		t.Fatalf("crf %d already tracked", crf)
	}
	return j, spec.Key()
}

// wakeBudget is how long after the terminal transition a parked waiter
// may answer: a goroutine wake-up and a loopback write, not a poll step.
func wakeBudget() time.Duration {
	if raceEnabled {
		return 100 * time.Millisecond
	}
	return 10 * time.Millisecond
}

func TestWaitWakesAtTheTerminalTransition(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	for _, failed := range []bool{false, true} {
		crf := 20
		errMsg := ""
		if failed {
			crf, errMsg = 21, "boom"
		}
		j, key := trackQueued(t, srv, crf)
		// Two waiters per endpoint: joined twins all wake on one completion.
		collect := parked(t,
			hts.URL+"/v1/jobs/"+key+"?wait=30s", hts.URL+"/v1/jobs/"+key+"?wait=30s",
			hts.URL+"/v1/results/"+key+"?wait=30s", hts.URL+"/v1/results/"+key+"?wait=30s")
		if !failed {
			if err := srv.store.Put(key, []byte(`{"stored":"bytes"}`)); err != nil {
				t.Fatal(err)
			}
		}
		end := time.Now()
		j.Finish(errMsg)
		got := collect()

		wantStatus, wantResult := `200 {"id":"`+key+`","status":"done","cached":true}`, `200 {"stored":"bytes"}`
		if failed {
			wantStatus = `200 {"id":"` + key + `","status":"failed","error":"boom"}`
			wantResult = `500 {"id":"` + key + `","status":"failed","error":"boom"}`
		}
		for i, a := range got {
			want := wantStatus
			if i >= 2 {
				want = wantResult
			}
			if a.String() != "HTTP "+want {
				t.Errorf("failed=%v waiter %d: got %v, want HTTP %s", failed, i, a, want)
			}
			if late := a.at.Sub(end); late > wakeBudget() {
				t.Errorf("failed=%v waiter %d answered %v after the transition, want within %v", failed, i, late, wakeBudget())
			}
		}
	}
}

// TestWaitDeadlineAnswersLikePlainGet: a wait that runs out answers,
// byte for byte, what a plain GET answers then.
func TestWaitDeadlineAnswersLikePlainGet(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	_, key := trackQueued(t, srv, 20)
	for _, path := range []string{"/v1/jobs/", "/v1/results/"} {
		t0 := time.Now()
		waited := get(context.Background(), hts.URL+path+key+"?wait=40ms")
		took := time.Since(t0)
		plain := get(context.Background(), hts.URL+path+key)
		if waited.String() != plain.String() {
			t.Errorf("%s: waited %v, plain %v", path, waited, plain)
		}
		if took < 40*time.Millisecond || took > 2*time.Second {
			t.Errorf("%s: a 40ms wait on a queued job took %v", path, took)
		}
	}
	if st := get(context.Background(), hts.URL+"/v1/jobs/"+key); st.code != http.StatusOK || !strings.Contains(st.body, StateQueued) {
		t.Errorf("status = %v, want 200 queued", st)
	}
	if res := get(context.Background(), hts.URL+"/v1/results/"+key); res.code != http.StatusConflict {
		t.Errorf("result = %v, want 409", res)
	}
}

// TestWaitNeverParksWithoutALiveJob: unknown, stored and failed ids, and
// wait=0 on a queued one, answer at once with the plain answer; a
// malformed or negative wait is 400; one over the cap is granted (as the
// cap) rather than refused.
func TestWaitNeverParksWithoutALiveJob(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	_, queued := trackQueued(t, srv, 20)
	failedJob, failed := trackQueued(t, srv, 21)
	failedJob.Finish("boom")
	storedJob, stored := trackQueued(t, srv, 22)
	if err := srv.store.Put(stored, []byte(`{"stored":"bytes"}`)); err != nil {
		t.Fatal(err)
	}
	storedJob.Finish("")
	unknown := strings.Repeat("0", 64)

	for _, c := range []struct{ name, id, wait string }{
		{"unknown", unknown, "30s"}, {"stored", stored, "30s"}, {"failed", failed, "30s"},
		{"wait=0", queued, "0"}, {"wait=0s", queued, "0s"}, {"empty wait", queued, ""},
	} {
		for _, path := range []string{"/v1/jobs/", "/v1/results/"} {
			t0 := time.Now()
			waited := get(context.Background(), hts.URL+path+c.id+"?wait="+c.wait)
			if took := time.Since(t0); took > 2*time.Second {
				t.Errorf("%s %s: took %v, want an answer at once", c.name, path, took)
			}
			if plain := get(context.Background(), hts.URL+path+c.id); waited.String() != plain.String() {
				t.Errorf("%s %s: waited %v, plain %v", c.name, path, waited, plain)
			}
		}
	}
	for _, bad := range []string{"abc", "-1s", "10", "1s2"} {
		for _, path := range []string{"/v1/jobs/", "/v1/results/"} {
			if a := get(context.Background(), hts.URL+path+queued+"?wait="+bad); a.code != http.StatusBadRequest {
				t.Errorf("wait=%s on %s: %v, want 400", bad, path, a)
			}
		}
	}

	j, key := trackQueued(t, srv, 23)
	collect := parked(t, hts.URL+"/v1/jobs/"+key+"?wait=9999h")
	j.Finish("boom")
	if a := collect()[0]; a.code != http.StatusOK || !strings.Contains(a.body, StateFailed) {
		t.Errorf("over-cap wait: %v, want it granted and woken by the failure", a)
	}
}

// TestWaitFreedByClientDisconnect: a client that goes away frees its
// handler goroutine; nothing stays parked on a job nobody watches.
func TestWaitFreedByClientDisconnect(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	_, key := trackQueued(t, srv, 20)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/v1/jobs/"
			if i%2 == 1 {
				path = "/v1/results/"
			}
			if a := get(ctx, hts.URL+path+key+"?wait=60s"); a.code != 0 {
				t.Errorf("waiter %d was answered (%v), want it cut by its own cancellation", i, a)
			}
		}(i)
	}
	// Parked means: 16 client goroutines, their connections, 16 handlers.
	waitGoroutines(t, func(n int) bool { return n >= before+48 }, "park")
	cancel()
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, func(n int) bool { return n <= before+4 }, "be freed")
}

// TestWaitStopsAtDisconnect: a parked ?wait= fetch is work of its
// request. When the client goes, its handler returns within a tick.
func TestWaitStopsAtDisconnect(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1}, false)
	_, key := trackQueued(t, srv, 20)
	entered, returned := make(chan struct{}), make(chan time.Time, 1)
	h := srv.Handler()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		h.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	t.Cleanup(hts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go get(ctx, hts.URL+"/v1/results/"+key+"?wait=60s")
	<-entered
	select {
	case <-returned:
		t.Fatal("the fetch was answered while its job was still queued")
	case <-time.After(30 * time.Millisecond):
	}
	t0 := time.Now()
	cancel()
	select {
	case at := <-returned:
		if took := at.Sub(t0); took > wakeBudget() {
			t.Errorf("the handler returned %v after the disconnect, want within %v", took, wakeBudget())
		}
	case <-time.After(5 * time.Second):
		t.Error("the handler is still parked 5s after the disconnect")
	}
}

func waitGoroutines(t *testing.T, ok func(int) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(runtime.NumGoroutine()) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("waiters did not %s: %d goroutines\n%s", what, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownReleasesWaiters: a drain leaves every tracked job
// terminal, so every parked waiter gets a terminal answer — done, or
// failed for the one the drain deadline had to abort — before Shutdown
// returns, with no drain hook of its own.
func TestShutdownReleasesWaiters(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	var urls []string
	specs := []JobSpec{longSpec(28)}
	for _, crf := range []int{22, 26, 30} {
		s := validEncodeSpec()
		s.CRF = crf
		s.Normalize()
		specs = append(specs, s)
	}
	for _, s := range specs {
		if _, code := submit(t, hts.URL, s); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		urls = append(urls, hts.URL+"/v1/jobs/"+s.Key()+"?wait=60s", hts.URL+"/v1/results/"+s.Key()+"?wait=60s")
	}
	collect := parked(t, urls...)
	srv.Start()

	budget := 300 * time.Millisecond // far less than the long job needs: the drain must abort it
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	t0 := time.Now()
	err := srv.Shutdown(ctx)
	if took := time.Since(t0); took > budget+2*time.Second {
		t.Fatalf("Shutdown took %v with waiters parked (budget %v)", took, budget)
	}
	if err == nil {
		t.Log("the long job finished inside the drain budget; the abort path went untested on this run")
	}
	for i, a := range collect() {
		terminal := a.code == http.StatusOK && (strings.Contains(a.body, `"done"`) || strings.Contains(a.body, `"failed"`))
		if i%2 == 1 { // result fetch: bytes, or 500 + failed
			terminal = a.code == http.StatusOK || (a.code == http.StatusInternalServerError && strings.Contains(a.body, `"failed"`))
		}
		if !terminal {
			t.Errorf("waiter %s: %v, want a terminal answer", urls[i], a)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// longSpec is an encode long enough (0.3–0.6 s of encoding on a 2-vCPU
// Xeon, after the clip is generated) to still be running when a test
// acts on it, with sub-millisecond task boundaries to abort at.
func longSpec(crf int) JobSpec {
	s := JobSpec{Kind: KindEncode, Family: "svt-av1", Clip: "desktop",
		Frames: 64, ScaleDiv: 16, CRF: crf, Preset: 0, Threads: 1}
	s.Normalize()
	return s
}

// TestDriveIsSubmitPlusOneFetch: against a real daemon a ~20 ms job
// costs exactly two requests, and its bytes are in hand within
// milliseconds of the job's own end — not a poll step later. (The
// polling Drive made five or more requests and overshot by up to the
// current step of its 1→50 ms ladder.)
func TestDriveIsSubmitPlusOneFetch(t *testing.T) {
	harness.ResetCellCache() // the jobs below must be computed, not remembered
	srv, err := NewServer(context.Background(), Config{StoreDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	var mu sync.Mutex
	requests := 0
	h := srv.Handler()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	best := time.Hour
	for attempt, crf := range []int{20, 24, 28} { // distinct keys; timing is judged on the best
		spec := JobSpec{Kind: KindEncode, Family: "x264", Clip: "desktop",
			Frames: 64, ScaleDiv: 16, CRF: crf, Preset: 4, Threads: 1}
		spec.Normalize()
		key, payload := spec.Key(), mustJSON(t, &spec)

		// The job's own end stamp: a watcher parked on the same channel the
		// waiting fetch parks on (zero if the job came and went unseen).
		ended, returned := make(chan time.Time, 1), make(chan struct{})
		go func() {
			for {
				if done := srv.api.jobs.doneOf(key); done != nil {
					<-done
					ended <- time.Now()
					return
				}
				select {
				case <-returned:
					ended <- time.Time{}
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		mu.Lock()
		requests = 0
		mu.Unlock()
		_, ds, err := Client{Base: hts.URL}.Drive(context.Background(), key, payload, DriveOpts{})
		got := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n := requests
		mu.Unlock()
		if n != 2 {
			t.Fatalf("attempt %d: Drive made %d requests, want submit + one fetch", attempt, n)
		}
		close(returned)
		if end := <-ended; !end.IsZero() {
			best = min(best, got.Sub(end))
			t.Logf("attempt %d: served in %v, bytes in hand %v after the job ended", attempt, ds.Served, got.Sub(end))
		}
	}
	if best == time.Hour {
		t.Fatal("no attempt's job was seen in flight; nothing was timed")
	}
	if budget := wakeBudget() / 2; best > budget {
		t.Fatalf("bytes in hand %v after the job ended at best, want within %v", best, budget)
	}
}

// nullWriter is the cheapest ResponseWriter there is, so the figures
// below are the handlers' own.
type nullWriter struct{ h http.Header }

func (w nullWriter) Header() http.Header         { return w.h }
func (w nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nullWriter) WriteHeader(int)             {}

// TestPlainGetAllocatesWhatItDid: a query-less GET — what vcbench's
// clients, curl and every poller send — must not pay for the wait
// parameter. The want column was recorded by running this test's body
// against the parent commit's handlers (go1.24, amd64). The stored
// result's row counts the store's Get as well: 8 when each result was a
// file to open and read, 2 since it is one positioned read of a segment.
func TestPlainGetAllocatesWhatItDid(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv, _ := testServer(t, Config{Workers: 1}, false)
	_, queued := trackQueued(t, srv, 20)
	storedJob, stored := trackQueued(t, srv, 22)
	if err := srv.store.Put(stored, []byte(`{"stored":"bytes"}`)); err != nil {
		t.Fatal(err)
	}
	storedJob.Finish("")

	for _, c := range []struct {
		name    string
		handler http.HandlerFunc
		id      string
		want    float64
	}{
		{"status of a queued job", srv.api.status, queued, 3},
		{"status of a stored job", srv.api.status, stored, 3},
		{"status of an unknown job", srv.api.status, strings.Repeat("0", 64), 9},
		{"result of a queued job", srv.api.result, queued, 3},
		{"result of a stored job", srv.api.result, stored, 2},
		{"result of an unknown job", srv.api.result, strings.Repeat("0", 64), 9},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/x/"+c.id, nil)
		req.SetPathValue("id", c.id)
		w := nullWriter{h: http.Header{}}
		if got := testing.AllocsPerRun(200, func() { c.handler(w, req) }); got != c.want {
			t.Errorf("%s: %v allocs per plain GET, the parent's handler made %v", c.name, got, c.want)
		}
	}
}

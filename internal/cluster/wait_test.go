package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// The gate's half of the waiter wall (internal/service/wait_test.go is
// the daemon's): the same four releases, the same answers, through
// Router.Handler over a shard the test holds by hand — plus the bounds
// and the connection pool a standing request per drive calls for.

// heldShard is a scripted shard: it accepts every submit under the
// spec's own key, and holds the result fetch of an accepted job until
// the test releases it (then serves bytes, or with fail set the job's
// failure) or the client goes; a job it never accepted is 404. refuse
// makes it turn submits away instead, serveAny serve any id at once.
type heldShard struct {
	fail, refuse, serveAny bool

	mu       sync.Mutex
	accepted map[string]bool
	release  chan struct{}
	holding  int // result fetches parked right now
}

func (h *heldShard) serve(t *testing.T) []Shard {
	t.Helper()
	h.release, h.accepted = make(chan struct{}), map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec service.JobSpec
		if err := service.DecodeJSON(w, r, &spec); err != nil || h.refuse {
			service.WriteError(w, http.StatusBadRequest, "refused (%v)", err)
			return
		}
		h.mu.Lock()
		h.accepted[spec.Key()] = true
		h.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, service.JobStatus{ID: spec.Key(), Status: service.StateQueued})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("HEAD /v1/results/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("GET /v1/results/{id}", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		release, known := h.release, h.accepted[r.PathValue("id")]
		if known {
			h.holding++
		}
		h.mu.Unlock()
		if known {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			h.mu.Lock()
			h.holding--
			h.mu.Unlock()
		} else if !h.serveAny {
			service.WriteError(w, http.StatusNotFound, "no result for %q", r.PathValue("id"))
			return
		}
		if h.fail {
			service.WriteJSON(w, http.StatusInternalServerError,
				service.JobStatus{ID: r.PathValue("id"), Status: service.StateFailed, Error: "boom"})
			return
		}
		fmt.Fprintf(w, `{"bytes-of":%q}`, r.PathValue("id")[:8])
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return []Shard{{Name: "s0", URL: srv.URL}}
}

// awaitHolding waits until n result fetches are parked on the shard.
func (h *heldShard) awaitHolding(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h.mu.Lock()
		got := h.holding
		h.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard holds %d fetches, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// letGo releases every fetch parked now; later ones park again.
func (h *heldShard) letGo() {
	h.mu.Lock()
	defer h.mu.Unlock()
	close(h.release)
	h.release = make(chan struct{})
}

// distinctSpecs returns n specs with n distinct keys (n ≤ 12288), none
// of them ever run: the held shard only echoes keys.
func distinctSpecs(n int) []*service.JobSpec {
	specs := make([]*service.JobSpec, n)
	for i := range specs {
		s := &service.JobSpec{Kind: service.KindEncode, Family: "x264", Clip: "desktop",
			Frames: 1 + i%64, ScaleDiv: 1 + i/64%64, CRF: 20 + i/4096, Preset: 4}
		s.Normalize()
		specs[i] = s
	}
	return specs
}

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
// has answered; the returned function collects the answers in order.
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
			t.Fatalf("GET %s answered before the drive finished: %v", urls[i], out[i])
		}
	}
	return func() []answer { wg.Wait(); return out }
}

func wakeBudget() time.Duration {
	if raceEnabled {
		return 100 * time.Millisecond
	}
	return 10 * time.Millisecond
}

// gateSubmit submits through the gate's handler and returns the key and
// a channel stamped when the drive is over: an in-process waiting GET
// answers then with the drive's terminal state.
func gateSubmit(t *testing.T, rt *Router, spec *service.JobSpec) (string, <-chan time.Time) {
	t.Helper()
	h := rt.Handler()
	if st, code := submit(t, h, spec); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %+v", code, st)
	}
	key := spec.Key()
	ended := make(chan time.Time, 1)
	go func() {
		call(h, http.MethodGet, "/v1/jobs/"+key+"?wait=60s", nil)
		ended <- time.Now()
	}()
	return key, ended
}

func TestGateWaitWakesAtTheTerminalTransition(t *testing.T) {
	for _, fail := range []bool{false, true} {
		shard := &heldShard{fail: fail}
		rt, hts := gateServer(t, &shardSet{shards: shard.serve(t)}, nil)
		key, ended := gateSubmit(t, rt, distinctSpecs(1)[0])
		shard.awaitHolding(t, 1)
		collect := parked(t,
			hts.URL+"/v1/jobs/"+key+"?wait=30s", hts.URL+"/v1/jobs/"+key+"?wait=30s",
			hts.URL+"/v1/results/"+key+"?wait=30s", hts.URL+"/v1/results/"+key+"?wait=30s")
		// The drive ends one loopback answer after the shard lets its
		// fetch go. The waiters are judged against the moment an
		// in-process waiter woken by the same transition stamps, so the
		// drive's own loopback latency is not charged to them.
		shard.letGo()
		got := collect()
		end := <-ended

		wantStatus := `200 {"id":"` + key + `","status":"done","cached":true}`
		wantResult := `200 {"bytes-of":"` + key[:8] + `"}`
		if fail {
			failure := `{"id":"` + key + `","status":"failed","error":"all 1 attempts failed; first: shard s0: job failed: boom"}`
			wantStatus, wantResult = "200 "+failure, "500 "+failure
		}
		for i, a := range got {
			want := wantStatus
			if i >= 2 {
				want = wantResult
			}
			if a.String() != "HTTP "+want {
				t.Errorf("fail=%v waiter %d: got %v, want HTTP %s", fail, i, a, want)
			}
			if late := a.at.Sub(end); late > wakeBudget() {
				t.Errorf("fail=%v waiter %d answered %v after the drive ended, want within %v", fail, i, late, wakeBudget())
			}
		}

		// Nothing is in flight any more: done, failed and unknown ids and
		// wait=0 answer at once, with the plain answer.
		for _, id := range []string{key, strings.Repeat("0", 64)} {
			for _, path := range []string{"/v1/jobs/", "/v1/results/"} {
				t0 := time.Now()
				waited := get(context.Background(), hts.URL+path+id+"?wait=30s")
				if took := time.Since(t0); took > 2*time.Second {
					t.Errorf("fail=%v %s%s: took %v, want an answer at once", fail, path, id[:8], took)
				}
				if plain := get(context.Background(), hts.URL+path+id); waited.String() != plain.String() {
					t.Errorf("fail=%v %s%s: waited %v, plain %v", fail, path, id[:8], waited, plain)
				}
			}
		}
	}
}

// TestGateWaitDeadlineAndBadValues: a wait that runs out answers what a
// plain GET answers then (200 running, 409); wait=0 does not park; a
// malformed or negative wait is 400.
func TestGateWaitDeadlineAndBadValues(t *testing.T) {
	shard := &heldShard{}
	rt, hts := gateServer(t, &shardSet{shards: shard.serve(t)}, nil)
	key, ended := gateSubmit(t, rt, distinctSpecs(1)[0])
	shard.awaitHolding(t, 1) // the drive is running: its submit was accepted
	for _, path := range []string{"/v1/jobs/", "/v1/results/"} {
		for _, wait := range []string{"40ms", "0"} {
			t0 := time.Now()
			waited := get(context.Background(), hts.URL+path+key+"?wait="+wait)
			took := time.Since(t0)
			if plain := get(context.Background(), hts.URL+path+key); waited.String() != plain.String() {
				t.Errorf("%s wait=%s: waited %v, plain %v", path, wait, waited, plain)
			}
			if (wait == "40ms" && took < 40*time.Millisecond) || took > 2*time.Second {
				t.Errorf("%s wait=%s took %v", path, wait, took)
			}
		}
		for _, bad := range []string{"abc", "-1s"} {
			if a := get(context.Background(), hts.URL+path+key+"?wait="+bad); a.code != http.StatusBadRequest {
				t.Errorf("%s wait=%s: %v, want 400", path, bad, a)
			}
		}
	}
	if st := get(context.Background(), hts.URL+"/v1/jobs/"+key); st.code != http.StatusOK || !strings.Contains(st.body, service.StateRunning) {
		t.Errorf("status = %v, want 200 running", st)
	}
	if res := get(context.Background(), hts.URL+"/v1/results/"+key); res.code != http.StatusConflict {
		t.Errorf("result = %v, want 409", res)
	}
	shard.letGo()
	<-ended
}

// TestGateWaitFreedByDisconnectAndDrain: waiters whose clients go away
// free their handlers; the rest are released by a drain that has to
// hard-stop their drive — inside its budget, each with a terminal answer.
func TestGateWaitFreedByDisconnectAndDrain(t *testing.T) {
	shard := &heldShard{}
	rt, hts := gateServer(t, &shardSet{shards: shard.serve(t)}, nil)
	key, _ := gateSubmit(t, rt, distinctSpecs(1)[0])
	shard.awaitHolding(t, 1)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := []string{"/v1/jobs/", "/v1/results/"}[i%2]
			if a := get(ctx, hts.URL+path+key+"?wait=60s"); a.code != 0 {
				t.Errorf("waiter %d was answered (%v), want it cut by its own cancellation", i, a)
			}
		}(i)
	}
	waitGoroutines(t, func(n int) bool { return n >= before+48 }, "park")
	cancel()
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, func(n int) bool { return n <= before+4 }, "be freed")

	urls := []string{hts.URL + "/v1/jobs/" + key + "?wait=60s", hts.URL + "/v1/results/" + key + "?wait=60s"}
	collect := parked(t, urls...)
	budget := 100 * time.Millisecond
	drain, stop := context.WithTimeout(context.Background(), budget)
	defer stop()
	t0 := time.Now()
	if err := rt.Shutdown(drain); err == nil {
		t.Error("Shutdown drained a drive its shard never answered")
	}
	if took := time.Since(t0); took > budget+2*time.Second {
		t.Fatalf("Shutdown took %v with waiters parked (budget %v)", took, budget)
	}
	got := collect()
	if a := got[0]; a.code != http.StatusOK || !strings.Contains(a.body, `"failed"`) {
		t.Errorf("status waiter: %v, want 200 failed", a)
	}
	if a := got[1]; a.code != http.StatusInternalServerError || !strings.Contains(a.body, `"failed"`) {
		t.Errorf("result waiter: %v, want 500 failed", a)
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

// TestWarmHintsAreBounded: the key → shard hint of every key a gate has
// routed or fetched through used to be kept for good.
func TestWarmHintsAreBounded(t *testing.T) {
	shard := &heldShard{serveAny: true}
	rt, _ := newTestRouter(t, &shardSet{shards: shard.serve(t)}, func(c *Config) { c.ResultCacheEntries = 4 })
	for _, s := range distinctSpecs(10000) {
		if _, ok := rt.FetchThrough(context.Background(), s.Key()); !ok {
			t.Fatal("fetch-through found nothing")
		}
	}
	rt.st.mu.Lock()
	defer rt.st.mu.Unlock()
	if n, max := rt.st.warm.Len(), 4*warmHintsPerResult; n > max {
		t.Fatalf("%d warm hints after 10000 keys, want at most %d", n, max)
	}
	if n := rt.st.results.Len(); n > 4 {
		t.Fatalf("%d cached results, want at most 4", n)
	}
}

// TestFailedDrivesAreBounded: failed drives of distinct keys used to
// stay in the drive table until resubmitted, i.e. for good; the job
// table keeps only the latest failures, so the oldest answers 404.
func TestFailedDrivesAreBounded(t *testing.T) {
	shard := &heldShard{refuse: true}
	rt, _ := newTestRouter(t, &shardSet{shards: shard.serve(t)}, func(c *Config) {
		c.RetryBackoff = time.Nanosecond // no second shard to back off towards
	})
	h := rt.Handler()
	specs := distinctSpecs(10000)
	for _, s := range specs {
		if st, code := submit(t, h, s); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d %+v", code, st)
		}
		call(h, http.MethodGet, "/v1/jobs/"+s.Key()+"?wait=60s", nil)
	}
	if n := rt.api.Inflight(); n != 0 {
		t.Fatalf("%d drives still tracked after every one failed", n)
	}
	if code, body := call(h, http.MethodGet, "/v1/jobs/"+specs[0].Key(), nil); code != http.StatusNotFound {
		t.Errorf("the oldest failed drive is still tracked: HTTP %d %s", code, body)
	}
	if code, body := call(h, http.MethodGet, "/v1/jobs/"+specs[len(specs)-1].Key(), nil); code != http.StatusOK || !strings.Contains(string(body), `"failed","error":"all`) {
		t.Errorf("the newest failed drive reads HTTP %d %s", code, body)
	}
}

// TestRouterReusesShardConnections: with one standing request per
// in-flight drive, the router's own transport keeps as many idle
// connections per shard as it may have drives, so a second wave of 16
// concurrent drives dials nothing: every request it makes is served
// from the idle pool. (http.DefaultTransport keeps two per host: every
// drive past the second dialled, then closed, its own.)
//
// The count is taken at the client. A request that finds no idle
// connection starts a dial and takes whichever comes first, that dial
// or a connection another request hands back, and a dial it no longer
// needs still lands, in the pool; on a loaded machine that dial's
// goroutine may not run until the wave has ended. Counting the
// connections the shard accepted charged such a first-wave dial to the
// second wave whenever it landed there (1 run in 10 under a concurrent
// `go test ./...`), and no barrier outside the transport can see a dial
// that has not yet connected. GotConnInfo.WasIdle false is exactly a
// request that did not find an idle connection, in whichever wave it
// ran.
func TestRouterReusesShardConnections(t *testing.T) {
	var mu sync.Mutex
	missed := 0 // requests not served from the idle pool
	// The trace rides the router's base context into every request it
	// makes; the router keeps its default client.
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.WasIdle {
				mu.Lock()
				missed++
				mu.Unlock()
			}
		},
	})
	shard := &heldShard{}
	rt, err := NewRouter(ctx, Config{Shards: shard.serve(t)})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Shutdown(context.Background())

	specs := distinctSpecs(32)
	wave := func(specs []*service.JobSpec) int {
		var ended []<-chan time.Time
		for _, s := range specs {
			_, e := gateSubmit(t, rt, s)
			ended = append(ended, e)
		}
		shard.awaitHolding(t, len(specs))
		shard.letGo()
		for _, e := range ended {
			<-e
		}
		mu.Lock()
		defer mu.Unlock()
		return missed
	}
	first := wave(specs[:16])
	if second := wave(specs[16:]); second != first {
		t.Fatalf("%d of the second wave's 32 requests found no idle connection (%d of the first wave's), want none", second-first, first)
	}
}

// TestHedgeLoserShardAbandonsJob: the winner landing cancels the loser
// at the gate as before — one hedge-loser-cancelled hop — and now on its
// shard too: the loser's job, still queued there behind other work, is
// dropped at pop instead of computed for nobody.
func TestHedgeLoserShardAbandonsJob(t *testing.T) {
	ring := NewRing([]string{"s0", "s1"}, 64)
	var victim *service.JobSpec
	for _, s := range testSpecs(t, 20) {
		if ring.Owners(s.Key(), 1)[0] == "s0" {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Skip("no spec in the pool hashes to s0; widen testSpecs")
	}
	set := newShardSet(t, 2)
	rt, _ := newTestRouter(t, set, func(c *Config) { c.HedgeMax = 20 * time.Millisecond })

	// Both of s0's workers are busy with seconds of somebody else's work.
	s0 := service.Client{Base: set.shards[0].URL}
	var busy []string
	for _, crf := range []int{30, 34} {
		long := service.JobSpec{Kind: service.KindEncode, Family: "svt-av1", Clip: "desktop",
			Frames: 64, ScaleDiv: 16, CRF: crf, Preset: 0, Threads: 1}
		long.Normalize()
		payload, _ := json.Marshal(&long)
		if _, code, err := s0.Submit(context.Background(), payload, ""); err != nil || code != http.StatusAccepted {
			t.Fatalf("occupying s0: HTTP %d %v", code, err)
		}
		busy = append(busy, long.Key())
	}

	body := driveOne(t, rt, victim) // s0 accepts and queues it; the hedge on s1 serves it
	if want := driveDirect(t, set.shards[1].URL, victim); string(body) != string(want) {
		t.Fatal("hedged bytes differ from the serving shard's")
	}
	if st := rt.StatsNow(); st.HedgesWon != 1 {
		t.Fatalf("hedges won = %d, want the hedge to have served the victim; stats %+v", st.HedgesWon, st)
	}
	losers := 0
	for _, ev := range rt.hops.Slice(obs.JobTraceID(victim.Key())) {
		if ev.Kind == obs.HopHedgeLoser {
			losers++
		}
	}
	if losers != 1 {
		t.Errorf("%d hedge-loser-cancelled hops, want exactly 1", losers)
	}

	// Free s0's workers the same way — the test is the work's only
	// submitter — and see what s0 does with the victim it still queues.
	for _, key := range busy {
		req, _ := http.NewRequest(http.MethodDelete, set.shards[0].URL+"/v1/jobs/"+key, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE of the occupying job: %v %v", resp, err)
		}
		resp.Body.Close()
	}
	a := get(context.Background(), set.shards[0].URL+"/v1/jobs/"+victim.Key()+"?wait=60s")
	if a.code != http.StatusOK || !strings.Contains(a.body, `"failed"`) || !strings.Contains(a.body, "abandoned") {
		t.Errorf("the loser's shard answers %v for the job, want it failed as abandoned", a)
	}
	if set.srvs[0].Store().Contains(victim.Key()) {
		t.Error("the loser's shard computed the job anyway")
	}
}

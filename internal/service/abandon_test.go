package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The cancellation wall: DELETE /v1/jobs/{id} gives back one accepted
// submit's interest, and a job is cancelled only when nobody who
// submitted it is still waiting — so a client that never sends DELETE
// sees exactly the daemon it saw before the endpoint existed.

func abandon(t *testing.T, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// awaitState polls a job's status until it reads want (a test-local
// status read: the wall needs to see intermediate states).
func awaitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st, code := getStatus(t, base, id)
		if code == http.StatusOK && st.Status == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: HTTP %d %+v, want %s", id[:8], code, st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneSubmitterDeleteStopsRunningJob: the only submitter's DELETE
// aborts a running job at its next task boundary, and the worker it
// held is serving the next job within 50 ms — where the job used to be
// computed to completion for nobody. The failed record does not block a
// resubmission, which computes the job afresh.
func TestLoneSubmitterDeleteStopsRunningJob(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1}, true)
	long := longSpec(28)
	if _, code := submit(t, hts.URL, long); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	awaitState(t, hts.URL, long.Key(), StateRunning)

	// The next job waits for the one worker; its standing fetch stamps
	// the moment it was served.
	next := validEncodeSpec()
	next.Normalize()
	if _, code := submit(t, hts.URL, next); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	served := make(chan answer, 1)
	go func() { served <- get(context.Background(), hts.URL+"/v1/results/"+next.Key()+"?wait=60s") }()

	t0 := time.Now()
	if code := abandon(t, hts.URL, long.Key()); code != http.StatusNoContent {
		t.Fatalf("DELETE of a running job: HTTP %d, want 204", code)
	}
	st := awaitState(t, hts.URL, long.Key(), StateFailed)
	freed := time.Since(t0)
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Errorf("abandoned job failed with %q, want its context's cancellation", st.Error)
	}
	if budget := 5 * wakeBudget(); freed > budget {
		t.Errorf("worker freed %v after the DELETE, want within %v", freed, budget)
	}
	if a := <-served; a.code != http.StatusOK {
		t.Fatalf("the job behind the abandoned one: %v", a)
	}

	if code := abandon(t, hts.URL, long.Key()); code != http.StatusNotFound {
		t.Errorf("DELETE of a finished job: HTTP %d, want 404", code)
	}
	// Resubmission: a fresh attempt, abandoned again so the test need
	// not wait a second for it.
	if st, code := submit(t, hts.URL, long); code != http.StatusAccepted || st.Status != StateQueued {
		t.Fatalf("resubmit of a cancelled job: HTTP %d %+v, want 202 queued", code, st)
	}
	abandon(t, hts.URL, long.Key())
	awaitState(t, hts.URL, long.Key(), StateFailed)
}

// TestLoneSubmitterDeleteSkipsQueuedJob: a queued job nobody waits for
// is failed at pop, never run; a late joiner revives it instead.
func TestLoneSubmitterDeleteSkipsQueuedJob(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	skipped, revived := validEncodeSpec(), validEncodeSpec()
	skipped.CRF, revived.CRF = 21, 23
	skipped.Normalize()
	revived.Normalize()
	for _, s := range []JobSpec{skipped, revived} {
		if _, code := submit(t, hts.URL, s); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		// Twice: the count stops at zero, so the revival below is not
		// cancelled by the extra one.
		for i := 0; i < 2; i++ {
			if code := abandon(t, hts.URL, s.Key()); code != http.StatusNoContent {
				t.Fatalf("DELETE %d of a queued job: HTTP %d, want 204", i, code)
			}
		}
	}
	if st, code := submit(t, hts.URL, revived); code != http.StatusAccepted || st.Status != StateQueued {
		t.Fatalf("join of an abandoned queued job: HTTP %d %+v", code, st)
	}
	if d := srv.q.depth(); d != 2 {
		t.Fatalf("queue depth %d, want the two original slots", d)
	}

	srv.Start()
	pollDone(t, hts.URL, revived.Key())
	st := awaitState(t, hts.URL, skipped.Key(), StateFailed)
	if st.Error != errAbandoned {
		t.Errorf("skipped job failed with %q, want %q", st.Error, errAbandoned)
	}
	if srv.store.Contains(skipped.Key()) {
		t.Error("the abandoned job was computed anyway")
	}
}

// TestDeleteWithTwoSubmittersCancelsNothing: one of two submitters
// walking away leaves the other's job alone; both can still fetch.
func TestDeleteWithTwoSubmittersCancelsNothing(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1}, false)
	spec := validEncodeSpec()
	spec.Normalize()
	for i := 0; i < 2; i++ {
		if _, code := submit(t, hts.URL, spec); code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
	}
	if code := abandon(t, hts.URL, spec.Key()); code != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	srv.Start()
	for i := 0; i < 2; i++ {
		if a := get(context.Background(), hts.URL+"/v1/results/"+spec.Key()+"?wait=60s"); a.code != http.StatusOK {
			t.Fatalf("fetch %d after the other submitter's DELETE: %v", i, a)
		}
	}
	if code := abandon(t, hts.URL, strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("DELETE of an unknown id: HTTP %d, want 404", code)
	}
}

// TestDriveAbandonsItsJobWhenCancelled is the client half end to end: a
// Drive whose context ends mid-wait leaves no computation behind on a
// real daemon.
func TestDriveAbandonsItsJobWhenCancelled(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1}, true)
	long := longSpec(30)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := Client{Base: hts.URL}.Drive(ctx, long.Key(), mustJSON(t, &long), DriveOpts{})
		errc <- err
	}()
	awaitState(t, hts.URL, long.Key(), StateRunning)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled Drive returned a result")
	}
	// Drive sent its DELETE before returning: the job is already failing.
	t0 := time.Now()
	awaitState(t, hts.URL, long.Key(), StateFailed)
	if took := time.Since(t0); took > 5*wakeBudget() {
		t.Errorf("job ran %v past its only client's cancellation", took)
	}
}

// TestDriveAbandonsASubmitCancelledInFlight: the daemon has taken the
// job, but its answer is still on the wire when the Drive's context
// ends. Drive reads the answer anyway and gives the interest back, so
// the job is skipped instead of computed for nobody. (A Drive that gave
// up on the answer never learned it held an interest.)
func TestDriveAbandonsASubmitCancelledInFlight(t *testing.T) {
	srv, err := NewServer(context.Background(), Config{StoreDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted, release := make(chan struct{}), make(chan struct{})
	h := srv.Handler()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		held := httptest.NewRecorder()
		h.ServeHTTP(held, r)
		close(accepted)
		<-release
		for k, v := range held.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(held.Code)
		w.Write(held.Body.Bytes())
	}))
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	long := longSpec(30)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := Client{Base: hts.URL}.Drive(ctx, long.Key(), mustJSON(t, &long), DriveOpts{})
		errc <- err
	}()
	<-accepted
	cancel()
	select {
	case err := <-errc:
		close(release)
		t.Fatalf("Drive returned (%v) without its submit's answer", err)
	case <-time.After(AbandonGrace / 10):
	}
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("cancelled Drive returned a result")
	}
	srv.Start()
	if st := awaitState(t, hts.URL, long.Key(), StateFailed); st.Error != errAbandoned {
		t.Errorf("job failed with %q, want %q", st.Error, errAbandoned)
	}
}

// TestInterestInterleavings drives the job table through seeded random
// submit / join / DELETE / pop / finish interleavings against a model:
// interest never goes negative, a job is cancelled exactly when its last
// submitter withdraws while it runs (or skipped when it was still
// queued), done closes exactly once, and a finished key can always be
// resubmitted. A concurrent hammer of the same operations then runs for
// the race detector and the double-close panic.
func TestInterestInterleavings(t *testing.T) {
	type model struct {
		j         *Job
		interest  int
		running   bool
		cancelled bool // model: the running job has been aborted
		aborts    int  // real: times its cancel func ran
	}
	spec := validEncodeSpec()
	spec.Normalize()
	for seed := uint64(1); seed <= 50; seed++ {
		rng := seed * 0x9E3779B97F4A7C15
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		tab := newJobTable()
		live := map[string]*model{}
		for step := 0; step < 400; step++ {
			s := spec
			s.CRF = 20 + next(4)
			key := s.Key()
			m := live[key]
			switch op := next(5); {
			case op == 0: // submit or join
				j, state, joined := tab.getOrAdd(s, key, "")
				switch {
				case m == nil || m.cancelled:
					if joined {
						t.Fatalf("seed %d step %d: joined a job that is gone or dying", seed, step)
					}
					live[key] = &model{j: j, interest: 1}
					if m != nil {
						// The dying job finishes after its replacement was
						// admitted, and must leave the replacement's record be.
						m.j.Finish(context.Canceled.Error())
						if now, _, ok := tab.status(key); !ok || now != state {
							t.Fatalf("seed %d step %d: a dying job's end disturbed its replacement (%q %v)", seed, step, now, ok)
						}
					}
				case !joined || j != m.j:
					t.Fatalf("seed %d step %d: a live job was not joined", seed, step)
				default:
					m.interest++
				}
			case op == 1: // DELETE
				if ok := tab.release(key); ok != (m != nil) {
					t.Fatalf("seed %d step %d: release = %v with model %+v", seed, step, ok, m)
				}
				if m != nil && m.interest > 0 {
					if m.interest--; m.interest == 0 && m.running {
						m.cancelled = true
					}
				}
			case op == 2 && m != nil && !m.running: // a worker pops it
				started := m.j.Start(func() { m.aborts++ })
				if started != (m.interest > 0) {
					t.Fatalf("seed %d step %d: start = %v at interest %d", seed, step, started, m.interest)
				}
				if m.running = started; !started {
					delete(live, key)
				}
			case op == 3 && m != nil && m.running: // it finishes, either way
				m.j.Finish([]string{"", "boom"}[next(2)])
				delete(live, key)
			}
			for key, m := range live {
				if m.j.interest != m.interest || m.j.interest < 0 {
					t.Fatalf("seed %d step %d: interest %d, model %d", seed, step, m.j.interest, m.interest)
				}
				if want := map[bool]int{true: 1}[m.cancelled]; m.aborts != want {
					t.Fatalf("seed %d step %d: job %s aborted %d times, want %d", seed, step, key[:8], m.aborts, want)
				}
				select {
				case <-m.j.done:
					t.Fatalf("seed %d step %d: a live job's done is closed", seed, step)
				default:
				}
			}
		}
	}

	tab := newJobTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := spec
				s.CRF = 20 + (g+i)%3
				j, _, joined := tab.getOrAdd(s, s.Key(), "")
				if i%3 == 0 {
					tab.release(s.Key())
				}
				if !joined { // this goroutine is the job's worker
					if j.Start(func() {}) {
						tab.status(s.Key())
						j.Finish([2]string{"", "boom"}[i%2])
					}
					<-j.done
				}
			}
		}(g)
	}
	wg.Wait()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if len(tab.m) != 0 {
		t.Errorf("%d jobs left in the table after every worker finished", len(tab.m))
	}
}

// TestFailedJobsAreBounded: distinct specs that fail (a 1 ms timeout
// does it) used to stay in the table for good; now the table keeps the
// latest maxFailedJobs errors and the oldest answers like an unknown id.
func TestFailedJobsAreBounded(t *testing.T) {
	tab := newJobTable()
	keys := make([]string, 10000)
	for i := range keys {
		spec := validEncodeSpec()
		spec.Frames, spec.ScaleDiv, spec.CRF = 1+i%64, 1+i/64%64, 20+i/4096
		spec.Normalize()
		keys[i] = spec.Key()
		j, _, joined := tab.getOrAdd(spec, keys[i], "")
		if joined {
			t.Fatalf("spec %d is not distinct", i)
		}
		j.Start(func() {})
		j.Finish("context deadline exceeded")
	}
	tab.mu.Lock()
	tracked := len(tab.m) + tab.failed.Len()
	tab.mu.Unlock()
	if tracked > maxFailedJobs {
		t.Fatalf("%d records tracked after %d failures, want at most %d", tracked, len(keys), maxFailedJobs)
	}
	if _, _, ok := tab.status(keys[0]); ok {
		t.Error("the oldest failure is still tracked")
	}
	if state, errMsg, ok := tab.status(keys[len(keys)-1]); !ok || state != StateFailed || errMsg == "" {
		t.Errorf("the newest failure reads %q %q %v", state, errMsg, ok)
	}
}

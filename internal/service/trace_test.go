package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// TestJobHopTrace drives one job and checks its hop slice: a
// deterministic admitted + exec pair under the derived trace id, a
// volatile queue-wait stamped with the process name, and the
// single-daemon /v1/cluster/trace answering a byte-stable
// deterministic view.
func TestJobHopTrace(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, ShardName: "s0"}, true)
	spec := validEncodeSpec()
	spec.Normalize()
	st, _ := submit(t, hts.URL, spec)
	pollDone(t, hts.URL, st.ID)

	trace := obs.JobTraceID(st.ID)
	evs := srv.hops.Slice(trace)
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Proc != "s0" {
			t.Errorf("hop proc = %q, want s0 (%+v)", ev.Proc, ev)
		}
	}
	if kinds[obs.HopAdmitted] != 1 || kinds[obs.HopExec] != 1 {
		t.Fatalf("hop kinds = %v, want one admitted and one exec", kinds)
	}
	if kinds[obs.HopQueueWait] != 1 {
		t.Errorf("hop kinds = %v, want one queue-wait", kinds)
	}

	// The slice endpoint serves the same events.
	body, code := getBody(t, hts.URL+"/v1/trace/"+trace)
	if code != http.StatusOK {
		t.Fatalf("trace slice: HTTP %d", code)
	}
	var slice struct {
		Proc   string         `json:"proc"`
		Events []obs.HopEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &slice); err != nil {
		t.Fatal(err)
	}
	if slice.Proc != "s0" || len(slice.Events) != len(evs) {
		t.Fatalf("slice = proc %q / %d events, want s0 / %d", slice.Proc, len(slice.Events), len(evs))
	}

	// Unknown traces are empty, not errors: a shard that never saw the
	// job legitimately has nothing.
	body, code = getBody(t, hts.URL+"/v1/trace/j-0000000000000000")
	if code != http.StatusOK {
		t.Fatalf("unknown trace slice: HTTP %d: %s", code, body)
	}

	// Deterministic merged view: twice the same bytes, no proc labels.
	det1, code := getBody(t, hts.URL+"/v1/cluster/trace/"+trace+"?volatile=0")
	if code != http.StatusOK {
		t.Fatalf("cluster trace: HTTP %d", code)
	}
	det2, _ := getBody(t, hts.URL+"/v1/cluster/trace/"+trace+"?volatile=0")
	if string(det1) != string(det2) {
		t.Fatal("deterministic trace not byte-stable across fetches")
	}
	if string(det1) == "" || stringContains(det1, `"proc"`) {
		t.Fatalf("deterministic view leaks proc labels:\n%s", det1)
	}
	full, _ := getBody(t, hts.URL+"/v1/cluster/trace/"+trace)
	if !stringContains(full, `"queue-wait`) {
		t.Errorf("full view missing queue-wait lane:\n%s", full)
	}

	if _, code := getBody(t, hts.URL+"/v1/cluster/trace/NOT%20VALID"); code != http.StatusBadRequest {
		t.Errorf("invalid trace id: HTTP %d, want 400", code)
	}
}

func stringContains(b []byte, sub string) bool {
	return bytes.Contains(b, []byte(sub))
}

// TestSessionHopTrace checks a live session's hops: session-open at
// create, one deterministic gop hop per encoded GOP carrying its index,
// digest prefix and modeled cost, and a session-resume volatile hop on
// the resumed leg.
func TestSessionHopTrace(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, ShardName: "s0"}, true)
	spec := liveTestSpec()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.SessionTraceID(key)

	var created SessionCreateResp
	if code := postJSON(t, hts.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	var feed SessionFeedResp
	if code := postJSON(t, hts.URL+"/v1/sessions/"+created.ID+"/frames", SessionFeedReq{Fed: 16, EOS: true}, &feed); code != http.StatusOK {
		t.Fatalf("feed: HTTP %d", code)
	}
	if !feed.Stats.Done {
		t.Fatal("session did not finish")
	}

	evs := srv.hops.Slice(trace)
	var open, gops int
	gopSeqs := map[uint64]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case obs.HopSessionOpen:
			open++
		case obs.HopGOP:
			gops++
			gopSeqs[ev.Seq] = true
			if ev.Arg == "" || ev.Dur == 0 {
				t.Errorf("gop hop missing digest/cost: %+v", ev)
			}
		}
	}
	if open != 1 {
		t.Errorf("session-open hops = %d, want 1", open)
	}
	if gops != feed.Stats.GOPs {
		t.Errorf("gop hops = %d, want %d (one per encoded GOP)", gops, feed.Stats.GOPs)
	}
	for i := 0; i < feed.Stats.GOPs; i++ {
		if !gopSeqs[uint64(i)] {
			t.Errorf("no gop hop for index %d", i)
		}
	}

	// Resume into a second daemon: it opens under the same derived trace
	// id and marks the leg with a volatile session-resume hop.
	srv2, hts2 := testServer(t, Config{Workers: 1, ShardName: "s1"}, true)
	tok := feed.Resume
	var resumed SessionCreateResp
	if code := postJSON(t, hts2.URL+"/v1/sessions", SessionCreateReq{Spec: spec, Resume: &tok}, &resumed); code != http.StatusCreated {
		t.Fatalf("resume create: HTTP %d", code)
	}
	found := false
	for _, ev := range srv2.hops.Slice(trace) {
		if ev.Kind == obs.HopSessionResume {
			found = true
			if ev.StartMS == 0 {
				t.Error("session-resume hop without a wall stamp")
			}
		}
	}
	if !found {
		t.Error("resumed daemon emitted no session-resume hop")
	}
}

// TestSLOEndpoint checks /v1/slo serves the registry-derived report and
// that stats responses carry a per-session SLO projection.
func TestSLOEndpoint(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1}, true)
	spec := liveTestSpec()
	var created SessionCreateResp
	if code := postJSON(t, hts.URL+"/v1/sessions", SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	var feed SessionFeedResp
	if code := postJSON(t, hts.URL+"/v1/sessions/"+created.ID+"/frames", SessionFeedReq{Fed: 8}, &feed); code != http.StatusOK {
		t.Fatalf("feed: HTTP %d", code)
	}

	body, code := getBody(t, hts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("slo: HTTP %d", code)
	}
	var rep telemetry.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	// live.* counters are process-global, so other tests contribute;
	// assert presence and internal consistency, not exact counts.
	if rep.Sessions == 0 || rep.Frames == 0 {
		t.Errorf("SLO report empty after a live feed: %+v", rep)
	}
	if rep.Frames > 0 && rep.MissBurnPPM != rep.Misses*1_000_000/rep.Frames {
		t.Errorf("burn not derived from counts: %+v", rep)
	}

	var stats SessionStatsResp
	resp, err := http.Get(hts.URL + "/v1/sessions/" + created.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SLO.Sessions != 1 || stats.SLO.Frames != uint64(stats.Stats.Fed) {
		t.Errorf("per-session SLO projection mismatch: %+v vs %+v", stats.SLO, stats.Stats)
	}
}

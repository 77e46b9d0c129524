package cluster

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// updateTrace regenerates the merged-trace golden file:
//
//	go test ./internal/cluster -run TraceTopology -update-trace
var updateTrace = flag.Bool("update-trace", false, "rewrite the cluster trace golden file")

const traceGoldenPath = "testdata/golden/cluster_trace.json"

func fetchTrace(t *testing.T, client *http.Client, base, id string, detOnly bool) []byte {
	t.Helper()
	url := base + "/v1/cluster/trace/" + id
	if detOnly {
		url += "?volatile=0"
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// driveSessionThroughGate creates and feeds a session to EOS over a
// gate (or bare daemon) URL, optionally killing the pinned shard after
// the first feed. Returns the create response (for shard/trace fields).
func driveSessionThroughGate(t *testing.T, client *http.Client, base string, set *shardSet, killPinned bool) service.SessionCreateResp {
	t.Helper()
	spec := liveSessionSpec()
	var created service.SessionCreateResp
	if code := gatePostJSON(t, client, base+"/v1/sessions", service.SessionCreateReq{Spec: spec}, &created); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	var feed service.SessionFeedResp
	if code := gatePostJSON(t, client, base+"/v1/sessions/"+created.ID+"/frames", service.SessionFeedReq{Fed: 8}, &feed); code != http.StatusOK {
		t.Fatalf("feed 1: HTTP %d", code)
	}
	if killPinned {
		if created.Shard == "" {
			t.Fatal("gate create response named no shard to kill")
		}
		for i, sh := range set.shards {
			if sh.Name == created.Shard {
				set.injs[i].Kill()
			}
		}
	}
	for _, req := range []service.SessionFeedReq{{Fed: 16}, {Fed: 24, EOS: true}} {
		if code := gatePostJSON(t, client, base+"/v1/sessions/"+created.ID+"/frames", req, &feed); code != http.StatusOK {
			t.Fatalf("feed %+v: HTTP %d", req, code)
		}
	}
	if !feed.Stats.Done {
		t.Fatal("session did not finish")
	}
	return created
}

// TestClusterTraceTopologyEquivalence is the tentpole invariant as a
// golden test: the deterministic merged trace of one job and one live
// session is identical bytes whether the work ran on a bare daemon, a
// one-shard gate, a 3-shard replicated gate, or a 3-shard gate whose
// pinned session shard was killed mid-stream — and matches the
// checked-in golden file. Placement (which process, what wall time,
// hedges, failovers) may never show through the deterministic view.
func TestClusterTraceTopologyEquivalence(t *testing.T) {
	jobSpec := testSpecs(t, 1)[0]
	jobTrace := obs.JobTraceID(jobSpec.Key())
	sessSpec := liveSessionSpec()
	key, err := sessSpec.Key()
	if err != nil {
		t.Fatal(err)
	}
	sessTrace := obs.SessionTraceID(key)

	// Topology A: one bare daemon, no gate at all.
	direct := func() string {
		srv, err := service.NewServer(context.Background(), service.Config{
			StoreDir: t.TempDir(), Workers: 2, QueueCap: 256,
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
		driveDirect(t, hts.URL, jobSpec)
		driveSessionThroughGate(t, http.DefaultClient, hts.URL, nil, false)
		return string(fetchTrace(t, http.DefaultClient, hts.URL, jobTrace, true)) +
			string(fetchTrace(t, http.DefaultClient, hts.URL, sessTrace, true))
	}()

	// Topologies B-D: gates of increasing size and hostility.
	gateRun := func(n, replicas int, killPinned bool) string {
		set := newShardSet(t, n)
		rt, client := newTestRouter(t, set, func(c *Config) {
			c.Replicas = replicas
		})
		gate := httptest.NewServer(rt.Handler())
		defer gate.Close()
		driveOne(t, rt, jobSpec)
		driveSessionThroughGate(t, client, gate.URL, set, killPinned)
		if replicas > 1 {
			// The full view must ledger the async replica push; poll
			// because it completes after the job's client-visible done.
			deadline := time.Now().Add(10 * time.Second)
			for {
				full := string(fetchTrace(t, client, gate.URL, jobTrace, false))
				if strings.Contains(full, `"`+obs.HopReplicaPush+`"`) {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("N=%d R=%d: no replica-push hop in full view:\n%s", n, replicas, full)
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		return string(fetchTrace(t, client, gate.URL, jobTrace, true)) +
			string(fetchTrace(t, client, gate.URL, sessTrace, true))
	}
	single := gateRun(1, 1, false)
	replicated := gateRun(3, 2, false)
	chaotic := gateRun(3, 2, true)

	for name, got := range map[string]string{
		"gate N=1":            single,
		"gate N=3 R=2":        replicated,
		"gate N=3 R=2 + kill": chaotic,
	} {
		if got != direct {
			t.Errorf("%s deterministic trace differs from bare daemon:\n%s", name, firstTraceDiff(direct, got))
		}
	}
	if t.Failed() {
		return
	}

	if *updateTrace {
		if err := os.MkdirAll(filepath.Dir(traceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, []byte(direct), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", traceGoldenPath)
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("no golden file %s (run with -update-trace): %v", traceGoldenPath, err)
	}
	if direct != string(want) {
		t.Errorf("merged trace differs from golden file\n%s", firstTraceDiff(string(want), direct))
	}
}

func firstTraceDiff(want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			wHi, gHi := i+60, i+60
			if wHi > len(want) {
				wHi = len(want)
			}
			if gHi > len(got) {
				gHi = len(got)
			}
			return fmt.Sprintf("first divergence at byte %d:\n  want …%s\n  got  …%s",
				i, want[lo:wHi], got[lo:gHi])
		}
	}
	return fmt.Sprintf("lengths differ: want %d, got %d", len(want), len(got))
}

// TestSessionFailoverTraceMarks checks the full (volatile-inclusive)
// view after a mid-stream kill: the gate records the failover
// re-anchor hop with the replacement shard, while the deterministic
// lanes stay pure of any placement fields.
func TestSessionFailoverTraceMarks(t *testing.T) {
	set := newShardSet(t, 3)
	rt, client := newTestRouter(t, set, nil)
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()

	created := driveSessionThroughGate(t, client, gate.URL, set, true)
	if created.Trace == "" {
		t.Fatal("gate create response carried no trace id")
	}

	evs := rt.hops.Slice(created.Trace)
	var reanchors, opens, gops int
	for _, ev := range evs {
		switch ev.Kind {
		case obs.HopReAnchor:
			reanchors++
			if ev.Arg == created.Shard {
				t.Errorf("re-anchor names the dead shard %q", ev.Arg)
			}
			if ev.StartMS == 0 {
				t.Error("re-anchor hop without a wall stamp")
			}
		case obs.HopSessionOpen:
			opens++
		case obs.HopGOP:
			gops++
		}
	}
	if reanchors == 0 {
		t.Fatalf("kill produced no failover-re-anchor hop: %+v", evs)
	}
	if opens != 1 {
		t.Errorf("session-open mirrors = %d, want exactly 1 across failover", opens)
	}
	if gops != 3 {
		t.Errorf("gop mirrors = %d, want 3 (24 frames / GOP 8), no gaps or dupes", gops)
	}
}

// TestHedgeLoserClosesHop stalls a primary so the hedge wins, then
// checks the losing attempt is actually cancelled and its death is
// traced: hedge-fired, hedge-winner and hedge-loser-cancelled hops all
// land in the gate's slice, and no attempt goroutine outlives shutdown.
func TestHedgeLoserClosesHop(t *testing.T) {
	pool := testSpecs(t, 20)
	ring := NewRing([]string{"s0", "s1"}, 64)
	var primer, victim *service.JobSpec
	for _, s := range pool {
		if ring.Owners(s.Key(), 1)[0] != "s0" {
			continue
		}
		if primer == nil {
			primer = s
			continue
		}
		victim = s
		break
	}
	if primer == nil || victim == nil {
		t.Skip("no specs in the pool hash to s0; widen testSpecs")
	}

	set := newShardSet(t, 2)
	before := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{}}
	rt, err := NewRouter(context.Background(), Config{
		Shards:       set.shards,
		ProbeFails:   1,
		RetryBackoff: 2 * time.Millisecond,
		HedgeAfter:   1,
		HedgeMin:     time.Millisecond,
		HedgeMax:     20 * time.Millisecond,
		Client:       client,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	driveOne(t, rt, primer) // prime s0's latency histogram
	set.injs[0].StallNext(16, 300*time.Millisecond)
	driveOne(t, rt, victim)

	kinds := map[string]int{}
	for _, ev := range rt.hops.Slice(obs.JobTraceID(victim.Key())) {
		kinds[ev.Kind]++
	}
	for _, want := range []string{obs.HopHedgeFired, obs.HopHedgeWinner, obs.HopHedgeLoser} {
		if kinds[want] == 0 {
			t.Errorf("gate slice missing %s hop: %v", want, kinds)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()

	// The stalled loser must be cancelled and joined, not abandoned: its
	// hop above is the ledger entry, this is the liveness check.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterMetricsFederation checks /v1/cluster/metrics over live
// shards: every alive shard appears as a label, the cluster roll-up
// row is present, and the deterministic subset is byte-stable across
// consecutive scrapes of a quiet cluster.
func TestClusterMetricsFederation(t *testing.T) {
	set := newShardSet(t, 2)
	rt, client := newTestRouter(t, set, nil)
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()
	driveOne(t, rt, testSpecs(t, 1)[0])

	get := func(url string) []byte {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		return body
	}
	out := string(get(gate.URL + "/v1/cluster/metrics"))
	for _, want := range []string{`{shard="s0"}`, `{shard="s1"}`, `{shard="cluster"}`} {
		if !strings.Contains(out, want) {
			t.Errorf("federated exposition missing %s:\n%.2000s", want, out)
		}
	}
	a := get(gate.URL + "/v1/cluster/metrics?volatile=0")
	b := get(gate.URL + "/v1/cluster/metrics?volatile=0")
	if string(a) != string(b) {
		t.Error("deterministic federated exposition not byte-stable on a quiet cluster")
	}
}

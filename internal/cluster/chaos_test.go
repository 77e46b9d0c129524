package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"vcprof/internal/cluster/chaos"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

// The chaos suite drives the router through seeded fault schedules —
// shard kills, stalls, 503 bursts — and pins the three cluster
// guarantees: the topology digest never changes, content addressing
// keeps side effects idempotent across replays and replicas, and
// failover latency stays bounded. Every schedule is a pure function of
// its seed, so a failure reproduces exactly.

// TestChaosKillMidRunDigestInvariant SIGKILLs (connection-aborts) one
// shard partway through the mix: with R=2 and failover the run must
// complete and fold the baseline digest.
func TestChaosKillMidRunDigestInvariant(t *testing.T) {
	specs := testSpecs(t, 10)
	want := baselineDigest(t, specs)
	set := newShardSet(t, 3)
	rt, _ := newTestRouter(t, set, func(c *Config) { c.Replicas = 2 })

	// Kill shard 1 once it has served a handful of requests (submits
	// and polls both count — the kill lands mid-job by construction).
	set.injs[1].Arm(chaos.Event{After: 5, Kind: chaos.KindKill})

	got := driveRouter(t, rt, specs)
	if got != want {
		t.Fatalf("digest diverged after mid-run kill:\n  got  %s\n  want %s", got, want)
	}
	if !set.injs[1].Dead() {
		t.Fatal("kill never fired: the schedule did not reach shard 1")
	}
}

// TestChaosSeededScheduleMatrix replays seeded fault schedules (stalls
// and 503 bursts drawn deterministically from each seed) and asserts
// digest invariance for every one. Failures print the seed, which
// reproduces the schedule exactly.
func TestChaosSeededScheduleMatrix(t *testing.T) {
	specs := testSpecs(t, 8)
	want := baselineDigest(t, specs)

	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			set := newShardSet(t, 3)
			rt, _ := newTestRouter(t, set, func(c *Config) {
				c.Replicas = 2
				// Eager hedging so stalled requests are raced around
				// instead of waited out.
				c.HedgeAfter = 1
				c.HedgeMin = time.Millisecond
				c.HedgeMax = 50 * time.Millisecond
			})
			events := chaos.Schedule(seed, chaos.ScheduleConfig{
				Shards:   3,
				Events:   6,
				MaxAfter: 40,
				MaxBurst: 3,
				Stall:    100 * time.Millisecond,
				Kills:    -1, // kills have their own dedicated test
			})
			if len(events) != 6 {
				t.Fatalf("schedule drew %d events, want 6", len(events))
			}
			chaos.Apply(events, set.injs)

			if got := driveRouter(t, rt, specs); got != want {
				t.Fatalf("seed %d: digest diverged under schedule %+v:\n  got  %s\n  want %s",
					seed, events, got, want)
			}
		})
	}
}

// TestChaosIdempotentSideEffects pins "no duplicate side effects":
// after a run with a mid-run kill (which forces reruns on other
// shards) plus replication, every copy of a key across every shard
// store is byte-identical — content addressing makes a rerun or a
// replica push a no-op, never a divergent duplicate.
func TestChaosIdempotentSideEffects(t *testing.T) {
	specs := testSpecs(t, 8)
	set := newShardSet(t, 3)
	rt, client := newTestRouter(t, set, func(c *Config) { c.Replicas = 2 })
	set.injs[0].Arm(chaos.Event{After: 8, Kind: chaos.KindKill})

	driveRouter(t, rt, specs)
	// Drain the router so the async replica pushes have all landed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()

	for _, s := range specs {
		key := s.Key()
		var first []byte
		copies := 0
		for i, srv := range set.srvs {
			if !srv.Store().Contains(key) {
				continue
			}
			body, ok, err := srv.Store().Get(key)
			if err != nil || !ok {
				t.Fatalf("shard %d: store get %s: ok=%v err=%v", i, key[:8], ok, err)
			}
			copies++
			if first == nil {
				first = body
			} else if !bytes.Equal(first, body) {
				t.Fatalf("key %s: shard %d holds divergent bytes", key[:8], i)
			}
		}
		if copies == 0 {
			t.Fatalf("key %s: no shard holds the result", key[:8])
		}
	}
}

// TestChaosBoundedFailover kills a key's primary owner before submit
// and requires the drive to complete on a replica within a small
// multiple of the healthy-path latency — failover is bounded, not an
// eventual retry crawl.
func TestChaosBoundedFailover(t *testing.T) {
	victim := testSpecs(t, 1)[0]
	set := newShardSet(t, 3)
	rt, _ := newTestRouter(t, set, func(c *Config) { c.Replicas = 2 })

	// Kill whichever shard the router's ring makes the spec's primary
	// owner. A spec always has one, so a missing shard is a failure.
	owner := rt.ring.Owners(victim.Key(), 1)
	killed := -1
	for i, sh := range set.shards {
		if len(owner) == 1 && sh.Name == owner[0] {
			set.injs[i].Kill()
			killed = i
		}
	}
	if killed < 0 {
		t.Fatalf("the ring names %v as the primary owner of the spec, which is no shard of the set", owner)
	}

	t0 := time.Now()
	driveOne(t, rt, victim)
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("failover took %v, want bounded well under 5s", d)
	}
	if got := rt.StatsNow().Failovers; got < 1 {
		t.Fatalf("failovers = %d, want >= 1", got)
	}
}

// TestChaos503BurstRecovers pins the burst path: a shard answering 503
// for a stretch is failed over, then revived by its next success — the
// registry never wedges a flapping shard permanently. Three shards so
// a job always has a candidate beyond the two bursting ones.
func TestChaos503BurstRecovers(t *testing.T) {
	specs := testSpecs(t, 6)
	want := baselineDigest(t, specs)
	set := newShardSet(t, 3)
	rt, _ := newTestRouter(t, set, nil)

	set.injs[0].FailNext(2)
	set.injs[1].FailNext(2)

	if got := driveRouter(t, rt, specs); got != want {
		t.Fatalf("digest diverged under 503 bursts:\n  got  %s\n  want %s", got, want)
	}
	// Both shards must be routable again once the bursts drain; a
	// probe round may itself eat a leftover burst slot, so converge.
	for probe := 0; ; probe++ {
		rt.ProbeNow()
		alive := 0
		for _, row := range rt.StatsNow().Shards {
			if row.Alive {
				alive++
			}
		}
		if alive == 3 {
			break
		}
		if probe >= 10 {
			t.Fatalf("shards still marked dead after %d probe rounds: %+v", probe, rt.StatsNow().Shards)
		}
	}
}

// TestHedgeFirstResponseWins stalls the primary so the hedge attempt
// finishes first, and asserts the race is won by the hedge without
// digest impact — the canonical tail-latency cut the hedging exists
// for. The victim keys are chosen by ring ownership, so the stalled
// shard is their primary by construction, not by luck.
func TestHedgeFirstResponseWins(t *testing.T) {
	pool := testSpecs(t, 20)
	ring := NewRing([]string{"s0", "s1"}, 64)
	var primer *service.JobSpec
	var victims []*service.JobSpec
	for _, s := range pool {
		if ring.Owners(s.Key(), 1)[0] != "s0" {
			continue
		}
		if primer == nil {
			primer = s
			continue
		}
		if len(victims) < 3 {
			victims = append(victims, s)
		}
	}
	if primer == nil || len(victims) == 0 {
		t.Skip("no specs in the pool hash to s0; widen testSpecs")
	}
	want := baselineDigest(t, victims)

	set := newShardSet(t, 2)
	rt, _ := newTestRouter(t, set, func(c *Config) {
		c.HedgeAfter = 1
		c.HedgeMin = time.Millisecond
		c.HedgeMax = 20 * time.Millisecond
	})

	// Prime s0's latency histogram so hedging is live, then stall its
	// next requests far past the hedge delay.
	driveOne(t, rt, primer)
	set.injs[0].StallNext(16, 300*time.Millisecond)

	bodies := make([][]byte, len(victims))
	for i, s := range victims {
		bodies[i] = driveOne(t, rt, s)
	}
	if got := obs.FoldDigest(bodyDigests(bodies)); got != want {
		t.Fatalf("digest diverged under stalls:\n  got  %s\n  want %s", got, want)
	}
	s := rt.StatsNow()
	if s.HedgesLaunched == 0 || s.HedgesWon == 0 {
		t.Fatalf("hedges launched=%d won=%d under a 300ms primary stall, want both > 0; stats %+v",
			s.HedgesLaunched, s.HedgesWon, s)
	}
}

// TestHedgeRaceHammer is the -race workout for the hedge/cancel path:
// many concurrent submissions (with duplicates, so the cluster-level
// singleflight races too) against stalling shards with eager hedging.
// After the storm the digest must match, and after Shutdown no attempt
// or replication goroutine may survive — first-response-wins must
// cancel the loser without leaking.
func TestHedgeRaceHammer(t *testing.T) {
	specs := testSpecs(t, 12)
	want := baselineDigest(t, specs)
	set := newShardSet(t, 3)

	before := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{}}
	rt, err := NewRouter(context.Background(), Config{
		Shards:       set.shards,
		Replicas:     2,
		ProbeFails:   2,
		RetryBackoff: 2 * time.Millisecond,
		HedgeAfter:   1,
		HedgeMin:     time.Millisecond,
		HedgeMax:     10 * time.Millisecond,
		MaxInflight:  256,
		Client:       client,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	set.injs[0].StallNext(10, 50*time.Millisecond)
	set.injs[1].StallNext(10, 50*time.Millisecond)

	h := rt.Handler()
	var wg sync.WaitGroup
	bodies := make([][]byte, len(specs))
	for pass := 0; pass < 3; pass++ { // duplicates: 3 submitters per spec
		for i := range specs {
			wg.Add(1)
			go func(pass, i int) {
				defer wg.Done()
				payload, _ := json.Marshal(specs[i])
				id := specs[i].Key()
				if code, body := call(h, http.MethodPost, "/v1/jobs", payload); code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("submit %s: HTTP %d %s", id[:8], code, body)
					return
				}
				code, body := call(h, http.MethodGet, "/v1/results/"+id+"?wait=60s", nil)
				if code != http.StatusOK {
					t.Errorf("job %s: HTTP %d %s", id[:8], code, body)
					return
				}
				if pass == 0 {
					bodies[i] = body
				}
			}(pass, i)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := obs.FoldDigest(bodyDigests(bodies)); got != want {
		t.Fatalf("digest diverged under the hammer:\n  got  %s\n  want %s", got, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()

	// Every attempt, prober and replication goroutine must be joined;
	// allow the runtime a moment to retire finished connection handlers.
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

package service

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"vcprof/internal/harness"
)

// heavySpec is an encode whose cost estimate sits two orders above
// lightSpec's (15× family base, 2× frames, 4× pixels) while staying
// cheap enough to drain a burst of them under -race — the admission
// tests exercise ordering, not actual service time.
func heavySpec(crf int) JobSpec {
	return JobSpec{
		Kind: KindEncode, Family: "libaom", Clip: "cricket",
		Frames: 2, ScaleDiv: 32, CRF: crf, Preset: 4, Threads: 1,
	}
}

// lightSpec is a minimal x264 encode.
func lightSpec(crf int) JobSpec {
	return JobSpec{
		Kind: KindEncode, Family: "x264", Clip: "desktop",
		Frames: 1, ScaleDiv: 64, CRF: crf, Preset: 8, Threads: 1,
	}
}

func mustJob(t *testing.T, s JobSpec) *Job {
	t.Helper()
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return newJob(s, s.Key(), "")
}

// TestSJFPopsLightJobsFirst pins the admission policy:
// equal-priority jobs pop in cost order however they arrived, so a
// light job admitted after a burst of heavy ones does not wait behind
// them. Priority still dominates cost.
func TestSJFPopsLightJobsFirst(t *testing.T) {
	q := newQueue(16)
	heavy1 := mustJob(t, heavySpec(20))
	heavy2 := mustJob(t, heavySpec(40))
	light := mustJob(t, lightSpec(30))
	batchLight := mustJob(t, lightSpec(31))
	batchLight.spec.Priority = PriorityBatch
	for _, j := range []*Job{heavy1, heavy2, batchLight, light} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []*Job{light, heavy1, heavy2, batchLight}
	if heavy1.cost < heavy2.cost == false {
		want = []*Job{light, heavy2, heavy1, batchLight}
	}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if j != w {
			t.Fatalf("pop %d: got cost=%d prio=%d, want cost=%d prio=%d",
				i, j.cost, j.spec.Priority, w.cost, w.spec.Priority)
		}
	}
}

// TestSJFSaturationUnchanged pins that the 429 path is orthogonal to
// cost ordering: capacity is a count, not a cost budget.
func TestSJFSaturationUnchanged(t *testing.T) {
	q := newQueue(2)
	if err := q.push(mustJob(t, heavySpec(20))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mustJob(t, heavySpec(25))); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mustJob(t, lightSpec(30))); !errors.Is(err, ErrSaturated) {
		t.Fatalf("push into full queue: err = %v, want ErrSaturated", err)
	}
}

// TestCostExcludedFromKey pins that admission cost hints never leak
// into the content address: specs that differ only in quantities the
// cost model reads identically, and — the stronger half — the key of a
// fixed spec is a constant, so no future cost field can slip into the
// canonical form unnoticed.
func TestCostExcludedFromKey(t *testing.T) {
	a := lightSpec(30)
	a.Normalize()
	b := lightSpec(30)
	b.Priority = PriorityBatch
	b.TimeoutMS = 9999
	b.Normalize()
	if a.Key() != b.Key() {
		t.Error("scheduling hints changed the content key")
	}
	if a.EstimatedCost() == 0 || b.EstimatedCost() == 0 {
		t.Error("cost estimate must be positive")
	}
	// Golden key: the canonical form of this exact spec is part of the
	// compatibility contract (stores written by older daemons must stay
	// addressable). Recompute only for an intentional, breaking change.
	const goldenKey = "115564bc8046986b8f346b4b21368acc05f4f9bf65cbeab6e78a42bcdb7c93f5"
	if got := a.Key(); got != goldenKey {
		t.Errorf("canonical key drifted:\ngot  %s\nwant %s\ncanonical: %s", got, goldenKey, a.Canonical())
	}
}

// TestEstimatedCostRanksKinds sanity-checks the service-level cost
// table: heavy encodes outrank light ones, and experiments outrank
// every single encode (they run whole cell grids).
func TestEstimatedCostRanksKinds(t *testing.T) {
	light := lightSpec(30)
	light.Normalize()
	heavy := heavySpec(30)
	heavy.Normalize()
	if light.EstimatedCost() >= heavy.EstimatedCost() {
		t.Errorf("light encode cost %d not below heavy encode cost %d", light.EstimatedCost(), heavy.EstimatedCost())
	}
	quick := JobSpec{Kind: KindExperiment, Experiment: "fig1", Quick: true}
	quick.Normalize()
	full := JobSpec{Kind: KindExperiment, Experiment: "fig1"}
	full.Normalize()
	if heavy.EstimatedCost() >= quick.EstimatedCost() {
		t.Errorf("heavy encode cost %d not below quick experiment cost %d", heavy.EstimatedCost(), quick.EstimatedCost())
	}
	if quick.EstimatedCost() >= full.EstimatedCost() {
		t.Error("quick experiment must cost less than the full scale")
	}
	if classOf(light.EstimatedCost()) != classSmall {
		t.Errorf("light encode classed %d, want small", classOf(light.EstimatedCost()))
	}
	if classOf(full.EstimatedCost()) != classLarge {
		t.Errorf("experiment classed %d, want large", classOf(full.EstimatedCost()))
	}
}

// TestLightJobNotStuckBehindHeavyMix drives a real server: a single
// worker, a burst of heavy jobs admitted first, then a light job. The
// light job must complete long before the burst
// drains. This is the end-to-end form of the tail-latency claim at
// queue granularity.
func TestLightJobNotStuckBehindHeavyMix(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, QueueCap: 32}, false)
	// Admit while the pool is stopped so arrival order is exact: four
	// heavy jobs, then the light one. These heavies are scaled up from
	// heavySpec so each runs much longer than the 5ms poll below — the
	// completion-order observation needs that resolution.
	var heavyIDs []string
	for i := 0; i < 4; i++ {
		h := heavySpec(20 + i)
		h.Frames = 4
		h.ScaleDiv = 16
		st, code := submit(t, hts.URL, h)
		if code != http.StatusAccepted {
			t.Fatalf("heavy submit %d: HTTP %d", i, code)
		}
		heavyIDs = append(heavyIDs, st.ID)
	}
	lightSt, code := submit(t, hts.URL, lightSpec(30))
	if code != http.StatusAccepted {
		t.Fatalf("light submit: HTTP %d", code)
	}
	srv.Start()
	// Watch for the light job with a tight poll, and count finished
	// heavies in the same snapshot: under sjf the single worker serves
	// the light job first, so at most one heavy (a pathological
	// interleaving at Start) may already be done.
	deadline := time.Now().Add(4 * time.Minute)
	for {
		if st, _ := getStatus(t, hts.URL, lightSt.ID); st.Status == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("light job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var doneHeavy int
	for _, id := range heavyIDs {
		if st, _ := getStatus(t, hts.URL, id); st.Status == StateDone {
			doneHeavy++
		}
	}
	if doneHeavy > 1 {
		t.Errorf("%d heavy jobs finished before the light one; sjf should have served it first", doneHeavy)
	}
	for _, id := range heavyIDs {
		pollDoneWithin(t, hts.URL, id, 4*time.Minute)
	}
}

// TestShardedServerMatchesSerial pins the serving layer's determinism
// contract across the scheduler boundary: the bytes a daemon stores
// for a spec, computed on its shared shard pool, equal the document
// Execute returns on a pool-less context with no server at all — the
// inline serial path for a 1-thread spec, a transient pool for a
// 4-lane one.
func TestShardedServerMatchesSerial(t *testing.T) {
	for _, threads := range []int{1, 4} {
		spec := validEncodeSpec()
		spec.Threads = threads
		spec.Normalize()

		harness.ResetCellCache()
		srv, hts := testServer(t, Config{Workers: 2}, true)
		st, code := submit(t, hts.URL, spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("threads=%d submit: HTTP %d", threads, code)
		}
		pollDone(t, hts.URL, st.ID)
		served, ok, err := srv.Store().Get(st.ID)
		if err != nil || !ok {
			t.Fatalf("threads=%d result missing: ok=%v err=%v", threads, ok, err)
		}

		harness.ResetCellCache()
		res, err := Execute(context.Background(), &spec)
		if err != nil {
			t.Fatalf("threads=%d serial: %v", threads, err)
		}
		if serial := res.Encode(); string(served) != string(serial) {
			t.Errorf("threads=%d: daemon and serial Execute produced different bytes:\nserved: %q\nserial: %q", threads, served, serial)
		}
	}
}

// TestSchedStatsExposed pins the pool accounting surface the smoke
// script and telemetry read.
func TestSchedStatsExposed(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 2}, true)
	st, code := submit(t, hts.URL, lightSpec(33))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollDone(t, hts.URL, st.ID)
	stats := srv.pool.Stats()
	if stats.Workers != 2 {
		t.Errorf("pool is %d wide, want Workers = 2", stats.Workers)
	}
	if stats.Tasks == 0 || stats.Graphs == 0 {
		t.Errorf("pool executed nothing: %+v", stats)
	}
}

// TestQueueWaitClassObserved pins that the by-class histograms see
// traffic (telemetry only — never part of result bytes).
func TestQueueWaitClassObserved(t *testing.T) {
	before := obsQueueWaitClassMS[classSmall].Snapshot().Count
	_, hts := testServer(t, Config{Workers: 1}, true)
	st, code := submit(t, hts.URL, lightSpec(37))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollDone(t, hts.URL, st.ID)
	deadline := time.Now().Add(5 * time.Second)
	for obsQueueWaitClassMS[classSmall].Snapshot().Count == before {
		if time.Now().After(deadline) {
			t.Fatal("small-class queue-wait histogram never observed the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

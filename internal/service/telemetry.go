package service

import (
	"sync"
	"sync/atomic"

	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/memo"
	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/topdown"
)

// Serving-layer latency histograms. Volatile: both measure host time,
// which no byte-compared export may contain. The bucket layout is the
// shared one, so vcload's client-side distribution lines up bucket for
// bucket with these.
var (
	obsJobLatencyMS = obs.NewVolatileHistogram("svc.job.latency_ms", telemetry.LatencyBucketsMS)
	obsQueueWaitMS  = obs.NewVolatileHistogram("svc.queue.wait_ms", telemetry.LatencyBucketsMS)

	// Queue wait split by job size class: the admission layer's report
	// card. Arrival-order service would let a heavy burst drag the
	// small-class tail up with it; shortest-job-first keeps the small
	// class flat — that separation is what the tail-latency experiment
	// reads off these.
	obsQueueWaitClassMS = [...]*obs.Histogram{
		classSmall:  obs.NewVolatileHistogram("svc.queue.wait_ms.small", telemetry.LatencyBucketsMS),
		classMedium: obs.NewVolatileHistogram("svc.queue.wait_ms.medium", telemetry.LatencyBucketsMS),
		classLarge:  obs.NewVolatileHistogram("svc.queue.wait_ms.large", telemetry.LatencyBucketsMS),
	}
)

// maxJobAccumulators bounds the per-job top-down retention: the oldest
// job's accumulator is dropped once the table exceeds this, matching
// the job table's own forget-when-done philosophy but keeping recently
// finished jobs queryable.
const maxJobAccumulators = 512

// seriesCap bounds the sampled series' ring buffer, in samples.
const seriesCap = 1024

// teleBoard owns the serving layer's live telemetry: the process
// aggregate and per-job streaming top-down accumulators, the running
// job gauge and the ring-buffer time series the sampler feeds. The
// immutable pointers (agg, series) are set once at construction; only
// the per-job table mutates, behind its own lock.
type teleBoard struct {
	agg     *topdown.Accumulator
	series  *telemetry.Series
	running atomic.Int64
	jobs    jobAccTable
}

// jobAccTable maps job keys to their streaming accumulators, one unit
// each. The table is only ever Peeked, so retention is by insertion
// order. It is its own struct so that mu guards exactly lru.
type jobAccTable struct {
	mu  sync.Mutex
	lru *memo.LRU[string, *topdown.Accumulator]
}

func newTeleBoard(s *Server) *teleBoard {
	b := &teleBoard{agg: topdown.NewAccumulator()}
	b.jobs.lru = memo.NewLRU[string, *topdown.Accumulator](maxJobAccumulators, nil)
	b.series = telemetry.NewSeries(seriesCap, seriesGauges(s, b))
	return b
}

// seriesGauges is the sampled gauge set: queue depth, worker
// occupancy (running jobs and in-flight engine cells), store size,
// cell-cache size, and per-encoder-stage throughput (cumulative stage
// ticks; the derivative across samples is the live stage throughput).
func seriesGauges(s *Server, b *teleBoard) []telemetry.Gauge {
	gs := []telemetry.Gauge{
		{Name: "svc.queue.depth", Sample: func() float64 { return float64(s.q.depth()) }},
		{Name: "svc.jobs.running", Sample: func() float64 { return float64(b.running.Load()) }},
		{Name: "svc.engine.inflight", Sample: func() float64 { return float64(harness.EngineInflight()) }},
		{Name: "svc.store.objects", Sample: func() float64 { return float64(s.store.Stats().Objects) }},
		{Name: "svc.store.bytes", Sample: func() float64 { return float64(s.store.Stats().Bytes) }},
		{Name: "svc.cells.entries", Sample: func() float64 { return float64(harness.CellCacheStats().Entries) }},
		{Name: "svc.sched.active", Sample: func() float64 { return float64(s.pool.Stats().Active) }},
		{Name: "svc.sched.queued", Sample: func() float64 { return float64(s.pool.Stats().Queued) }},
	}
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		h := obs.FindHistogram(encoders.StageHistogramName(st))
		gs = append(gs, telemetry.Gauge{
			Name:   encoders.StageHistogramName(st) + ".sum",
			Sample: func() float64 { return float64(h.Sum()) },
		})
	}
	return gs
}

// jobAcc returns (creating if needed) the accumulator streaming job
// key's top-down. Creation evicts the oldest tracked job beyond the
// retention bound.
func (b *teleBoard) jobAcc(key string) *topdown.Accumulator {
	t := &b.jobs
	t.mu.Lock()
	defer t.mu.Unlock()
	acc, ok := t.lru.Peek(key)
	if !ok {
		acc = topdown.NewAccumulator()
		t.lru.Put(key, acc, 1)
	}
	return acc
}

// findJobAcc looks a job's accumulator up without creating one.
func (b *teleBoard) findJobAcc(key string) (*topdown.Accumulator, bool) {
	t := &b.jobs
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Peek(key)
}

// Gauges reads every gauge once for /metrics exposition: the sampled
// series gauges plus the SLO quantiles derived from the latency
// histograms.
func (s *Server) Gauges() []telemetry.GaugeSample {
	var out []telemetry.GaugeSample
	for _, g := range seriesGauges(s, s.tele) {
		out = append(out, telemetry.GaugeSample{Name: g.Name, Value: g.Sample()})
	}
	out = append(out, telemetry.GaugeSample{Name: "svc.store.cap", Value: float64(s.store.Stats().Cap)})
	for _, h := range []*obs.Histogram{obsJobLatencyMS, obsQueueWaitMS} {
		hv := h.Snapshot()
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			out = append(out, telemetry.GaugeSample{
				Name:  hv.Name + "." + q.suffix,
				Value: float64(hv.Quantile(q.q)),
			})
		}
	}
	return out
}

func topdownOf(snap topdown.Snapshot) Topdown {
	w := Topdown{
		TotalSlots: snap.Total,
		Producers:  snap.Producers,
		Flushes:    snap.Flushes,
		Commits:    snap.Commits,
	}
	if b, err := snap.Level1(); err == nil {
		w.Retiring = b.Retiring
		w.BadSpec = b.BadSpec
		w.Frontend = b.Frontend
		w.Backend = b.Backend
	}
	return w
}

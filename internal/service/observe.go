package service

import "vcprof/internal/obs"

// Service counters, named per internal/telemetry/naming.go.
// Deterministic counters depend only on the set of jobs the server was
// asked to complete (fixed request mix → fixed totals, any worker
// count); volatile counters measure races the scheduler decides —
// whether a duplicate arrived while its twin was still in flight,
// whether the queue happened to be full — and are excluded from every
// byte-compared export, as usual.
var (
	obsJobsSubmitted = obs.NewCounter("svc.jobs.submitted") // accepted into the queue
	obsJobsCompleted = obs.NewCounter("svc.jobs.completed")
	obsJobsFailed    = obs.NewCounter("svc.jobs.failed")

	obsJobsDeduped  = obs.NewVolatileCounter("svc.jobs.deduped")  // joined an in-flight twin
	obsJobsCached   = obs.NewVolatileCounter("svc.jobs.cached")   // answered from the store at submit
	obsJobsRejected = obs.NewVolatileCounter("svc.jobs.rejected") // 429: queue saturated
	obsJobsRefused  = obs.NewVolatileCounter("svc.jobs.refused")  // 503: draining
	obsQueuePeak    = obs.NewVolatileCounter("svc.queue.depth_peak")

	// Store traffic is scheduling-shaped too: a duplicate that joins an
	// in-flight job never reads the store, one that arrives later does,
	// and eviction churn can force a re-put of recomputed bytes.
	obsStoreHits      = obs.NewVolatileCounter("svc.store.hits")
	obsStoreMisses    = obs.NewVolatileCounter("svc.store.misses")
	obsStoreEvictions = obs.NewVolatileCounter("svc.store.evictions")
	obsStorePutBytes  = obs.NewVolatileCounter("svc.store.put_bytes")
	obsStoreCorrupt   = obs.NewVolatileCounter("svc.store.corrupt") // records failing their checksum, at open or Get

	// Cluster traffic: replica writes a gate pushed (PUT /v1/results)
	// and ownership-hint probes (HEAD /v1/results). Volatile — both
	// follow the router's racing, not the job set.
	obsReplicaPuts = obs.NewVolatileCounter("svc.replica.puts")
	obsOwnerProbes = obs.NewVolatileCounter("svc.owner.probes")

	// Span names for worker job lanes in the Chrome trace.
	obsJobDoneName   = obs.Name("job/done")
	obsJobFailedName = obs.Name("job/failed")
)

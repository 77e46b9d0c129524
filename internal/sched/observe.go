package sched

import "vcprof/internal/obs"

// Process-wide scheduling counters, aggregated across every pool. All
// volatile: which worker pops versus steals, how often one parks, and
// how many tasks even run (cancellation skips the rest of a graph) are
// decided by the scheduler and the host, so none of it may appear in a
// byte-compared export. Per-pool snapshots come from Pool.Stats.
var (
	obsTasks  = obs.NewVolatileCounter("sched.tasks")
	obsGraphs = obs.NewVolatileCounter("sched.graphs")
	obsPops   = obs.NewVolatileCounter("sched.pops")
	obsSteals = obs.NewVolatileCounter("sched.steals")
	obsParks  = obs.NewVolatileCounter("sched.parks")
)

package analysis

// VCProfAnalyzers returns vclint's analyzer set configured for this
// repository's invariants (DESIGN.md §6):
//
//   - detflow (whole-program): the deterministic roots — harness cell
//     execution (RunAll/RunCell/RunExperiment), the encoder Encode
//     path, every scheduler task body (implementations of
//     sched.Graph.Run), the obs deterministic writers (Trace.Advance/Begin, Span.End,
//     Counter.Add), the fold-digest root (obs.FoldDigest, the one
//     value every cross-topology equivalence test and smoke compares,
//     for jobs and live sessions alike), and the live-session root
//     (live.Session.Feed, whose virtual-tick timeline decides misses
//     and degrades) — are tainted through the module call graph, and
//     any reachable volatile source in the deterministic core is
//     reported with its root→sink chain (vclint -why). Sites no root
//     reaches are findings in their source's own scope: wall-clock
//     reads in the cell-assembly and table paths (harness, metrics,
//     perf, encoders) and the obs layer, whose span clock must stay
//     virtual (DESIGN.md §7); host-environment reads anywhere under
//     internal/ (cmd/ front-ends pass such values down as explicit
//     configuration); randomness and order-dependent map ranges
//     anywhere. The sanctioned wall-clock holders — the engine's
//     progress/timing functions in harness/engine.go and
//     encoders.Encode's Result.Wall — each carry a //lint:ignore with
//     its justification on the function or site.
//   - lockheld: the engine's worker pool hits the cell/clip caches and
//     the experiment registry concurrently, so their mutex discipline
//     is checked in harness and video; the service daemon's queue, job
//     table and result store, the cluster router's drive/warm/LRU
//     state, and the live session engine's per-session state are in
//     scope for the same reason, as are the cache package and memo,
//     whose compute-once cache every cell passes through and whose free
//     list every stat cell and replay borrows its tables from.
//   - lockorder (whole-program): the mutex-bearing layers (sched,
//     service, harness, obs, cluster, live) plus video's caches, the
//     cache package and memo's tables and free list must acquire
//     lock classes in a cycle-free order; cycles are potential
//     deadlocks. The cluster router's contract — the shard registry's
//     mutex is a leaf, never held across an HTTP call or a histogram
//     observation — is exactly the shape this analyzer pins.
//   - shardpure (whole-program): scheduler task bodies (the same
//     sched.Graph implementations plus the encode graph's task
//     dispatch and per-kind task methods) may write shared state only
//     through their own shard-indexed slot.
//
// Fixture packages under internal/analysis/testdata/<name> opt into the
// matching analyzer's scope automatically (see pathScope), so the CLI
// exercises each analyzer end to end on its fixture tree.
func VCProfAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDetFlow(DetFlowConfig{
			Funcs: []string{
				"vcprof/internal/harness.RunAll",
				"vcprof/internal/harness.RunCell",
				"vcprof/internal/harness.RunExperiment",
				"vcprof/internal/obs.FoldDigest",
				"vcprof/internal/obs.MergeHops",
			},
			Methods: []string{
				"vcprof/internal/encoders.model.Encode",
				"vcprof/internal/obs.Trace.Advance",
				"vcprof/internal/obs.Trace.Begin",
				"vcprof/internal/obs.Span.End",
				"vcprof/internal/obs.Counter.Add",
				"vcprof/internal/live.Session.Feed",
			},
			IfaceImpls: []string{
				"vcprof/internal/sched.Graph.Run",
			},
			SinkPaths: []string{
				"vcprof/internal/harness",
				"vcprof/internal/metrics",
				"vcprof/internal/perf",
				"vcprof/internal/encoders",
				"vcprof/internal/obs",
				"vcprof/internal/sched",
				"vcprof/internal/trace",
				"vcprof/internal/video",
				"vcprof/internal/codec",
				"vcprof/internal/uarch",
				"vcprof/internal/cbp",
				"vcprof/internal/cluster",
				"vcprof/internal/live",
				"vcprof/internal/memo",
			},
			clockPaths: []string{
				"vcprof/internal/harness",
				"vcprof/internal/metrics",
				"vcprof/internal/perf",
				"vcprof/internal/encoders",
				"vcprof/internal/obs",
			},
			envPaths: []string{"vcprof/internal"},
		}),
		NewLockHeld([]string{
			"vcprof/internal/harness",
			"vcprof/internal/video",
			"vcprof/internal/service",
			"vcprof/internal/cluster",
			"vcprof/internal/live",
			"vcprof/internal/uarch/cache",
			"vcprof/internal/memo",
		}),
		NewLockOrder([]string{
			"vcprof/internal/sched",
			"vcprof/internal/service",
			"vcprof/internal/harness",
			"vcprof/internal/obs",
			"vcprof/internal/video",
			"vcprof/internal/cluster",
			"vcprof/internal/live",
			"vcprof/internal/uarch/cache",
			"vcprof/internal/memo",
		}),
		NewShardPure(ShardPureConfig{
			TaskIfaces: []string{
				"vcprof/internal/sched.Graph.Run",
			},
			SubmitFuncs: []string{
				"vcprof/internal/analysis/testdata/shardpure.graph.add",
			},
			TaskFuncs: []string{
				"vcprof/internal/encoders.graph.exec",
				"vcprof/internal/encoders.streamEncoder.encodeSegment",
				"vcprof/internal/encoders.streamEncoder.encodeTile",
				"vcprof/internal/encoders.streamEncoder.encodeRow",
				"vcprof/internal/analysis/testdata/shardpure.graph.exec",
			},
		}),
	}
}

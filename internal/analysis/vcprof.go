package analysis

import "fmt"

// VCProfAnalyzers returns vclint's analyzer set configured for this
// repository's invariants (DESIGN.md §6):
//
//   - detnow: wall-clock reads are banned in the cell-assembly and
//     table paths (harness, metrics, perf, encoders) and in the obs
//     self-observation layer, whose span clock must stay virtual
//     (DESIGN.md §7). The sanctioned wall-clock holders — the engine's
//     progress/timing functions in harness/engine.go and
//     encoders.Encode's Result.Wall — each carry a //lint:ignore with
//     its justification on the function or site, which the chain-aware
//     suppression honors; there is no file-level allowlist.
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
//     reported with its root→sink chain (vclint -why).
//   - lockorder (whole-program): the mutex-bearing layers (sched,
//     service, harness, obs, cluster, live) plus video's caches and the
//     cache package's hierarchy free list must acquire
//     lock classes in a cycle-free order; cycles are potential
//     deadlocks. The cluster router's contract — the shard registry's
//     mutex is a leaf, never held across an HTTP call or a histogram
//     observation — is exactly the shape this analyzer pins.
//   - shardpure (whole-program): scheduler task bodies (the same
//     sched.Graph implementations plus run closures handed to the
//     encode graph builder) may write shared state only through their
//     own shard-indexed slot.
//   - detmaprange / detrand: unscoped; randomized map order and
//     randomness sources are wrong anywhere in a byte-deterministic
//     measurement stack.
//   - lockheld: the engine's worker pool hits the cell/clip caches and
//     the experiment registry concurrently, so their mutex discipline
//     is checked in harness and video; the service daemon's queue, job
//     table and result store, the cluster router's drive/warm/LRU
//     state, and the live session engine's per-session state are in
//     scope for the same reason, as is the hierarchy free list every
//     stat cell and replay acquires from.
//   - hotalloc: the codec kernels, the per-op simulator loops and the
//     run consumers between them (the trace sink adapters, the tape's
//     writers and its Expand/Branches/Play readers, bpred.Monitor.Loop,
//     cache.Hierarchy.Run) are the measured hot paths; allocations
//     there distort the counts the experiments report.
//   - detenv: nothing under internal/ may read host environment state;
//     cmd/ front-ends pass such values down as explicit configuration.
//   - httpctx: the service daemon's and the cluster gate's HTTP
//     handlers must derive contexts from r.Context(); a
//     context.Background()/TODO() minted inside a handler severs
//     client disconnects, per-job deadlines and the graceful drain
//     from the harness work they should cancel.
//   - histbuckets: unscoped; histogram bucket layouts passed to
//     obs.NewHistogram/NewVolatileHistogram (and the shared
//     *Buckets* layout vars in internal/telemetry) must be strictly
//     increasing literals, so the registry's init-time panic can
//     never fire in a shipped binary.
//
// Fixture packages under internal/analysis/testdata/<name> opt into the
// matching analyzer's scope automatically (see pathScope), so the CLI
// exercises each analyzer end to end on its fixture tree.
func VCProfAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDetNow([]string{
			"vcprof/internal/harness",
			"vcprof/internal/metrics",
			"vcprof/internal/perf",
			"vcprof/internal/encoders",
			"vcprof/internal/obs",
		}),
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
			},
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
		}),
		NewShardPure(ShardPureConfig{
			TaskIfaces: []string{
				"vcprof/internal/sched.Graph.Run",
			},
			SubmitFuncs: []string{
				"vcprof/internal/encoders.graph.add",
				"vcprof/internal/analysis/testdata/shardpure.graph.add",
			},
		}),
		NewDetMapRange(),
		NewDetRand(),
		NewLockHeld([]string{
			"vcprof/internal/harness",
			"vcprof/internal/video",
			"vcprof/internal/service",
			"vcprof/internal/cluster",
			"vcprof/internal/live",
			"vcprof/internal/uarch/cache",
		}),
		NewHotAlloc([]string{
			"vcprof/internal/codec/transform",
			"vcprof/internal/codec/motion",
			"vcprof/internal/codec/intra",
			"vcprof/internal/codec/quant",
			"vcprof/internal/uarch/cache",
			"vcprof/internal/uarch/pipeline",
			"vcprof/internal/uarch/bpred",
			"vcprof/internal/uarch/machine",
			"vcprof/internal/trace/ctx.go",
			"vcprof/internal/trace/sink.go",
			"vcprof/internal/trace/tape.go",
		}),
		NewDetEnv([]string{"vcprof/internal"}),
		NewHTTPCtx([]string{
			"vcprof/internal/service",
			"vcprof/internal/cluster",
			"vcprof/internal/live",
			"vcprof/cmd",
		}),
		NewHistBuckets(),
	}
}

// LookupAnalyzer finds one of the configured analyzers by name.
func LookupAnalyzer(name string) (*Analyzer, error) {
	for _, az := range VCProfAnalyzers() {
		if az.Name == name {
			return az, nil
		}
	}
	return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
}

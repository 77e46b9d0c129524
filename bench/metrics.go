package main

import "fmt"

// metricDef names one reported number. The end-to-end table is what
// BENCHMARK.json gates on; the per-layer table is what a traced run
// prints. Both are mirrored in BENCHMARK.json (a test pins the two
// copies together) because the driver reads the file, not the code.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Moves records, for a per-layer metric, which end-to-end metric it
	// should move on which workload (README interaction table).
	Moves string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is measured with tracing off. Every workload reports every
// row: sim_minst_per_s counts the simulated instructions (or replayed
// µops) behind the results delivered, and latency_p95_ms falls back to
// the highest percentile the sample supports (see tailRule), a single
// pass's sample on live_ladder (see rowRules).
//
// The host-time rows (setup_s, throughput_ops_s, latency_*,
// sim_minst_per_s, cpu_s_per_op) are reported at nominal host speed:
// scaled by the run's host factor, see hostref.go.
//
// The timing bounds are as wide as the contract allows. Raw, ten runs
// of unchanged code on the 2-vCPU reference VM spread (IQR over median)
// 3–13% while the host holds one speed and 20–30% across one of its
// changes; normalised they spread 1–10% in two sets of ten on every
// workload, with 15% seen once, and the contract rejects a benchmark
// whose own spread exceeds its bound. Allocation counts repeat to four
// digits except where poll counts follow latency (gate_mix, 2.5%).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: higher, Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: lower, Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// perLayer is measured by a traced run. Rows owned by a workload (see
// workload.layers) come from that workload's own traced loop when it
// is the one running, and from its -short probe otherwise; every other
// row comes from the cost ladder's fixed sample.
var perLayer = []metricDef{
	{Name: "video.generate_ms_per_clip", Unit: "ms", Better: lower, Moves: "setup_s everywhere"},

	{Name: "encoders.plain_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s, cpu_s_per_op on serve_cold, gate_mix, live_ladder; <=18% of stat_grid"},
	{Name: "encoders.plain_allocs", Unit: "count", Better: lower, Moves: "allocs_per_op on every workload but serve_warm"},
	{Name: "encoders.counted_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on serve_cold, gate_mix, live_ladder"},

	{Name: "trace.count_tax_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on serve_cold, live_ladder by <=10%"},
	{Name: "trace.sink_dispatch_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on stat_grid by ~9%"},
	{Name: "trace.branches_per_op", Unit: "count", Better: lower, Moves: "none: simulated count, must repeat exactly"},
	{Name: "trace.mem_accesses_per_op", Unit: "count", Better: lower, Moves: "none: simulated count, must repeat exactly"},

	{Name: "bpred.replay_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s, sim_minst_per_s on stat_grid (~62% share)"},
	{Name: "bpred.ns_per_branch", Unit: "ns", Better: lower, Moves: "throughput_ops_s on stat_grid"},
	{Name: "bpred.share_of_stat_pct", Unit: "%", Better: lower, Moves: "none: share of perf.stat_ms"},
	{Name: "bpred.miss_pct", Unit: "%", Better: lower, Moves: "none: simulated statistic, must stay identical"},
	{Name: "bpred.zoo_ns_per_prediction", Unit: "ns", Better: lower, Moves: "throughput_ops_s on replay_grid (~25% share)"},

	{Name: "cache.replay_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on stat_grid by ~9%"},
	{Name: "cache.ns_per_access", Unit: "ns", Better: lower, Moves: "throughput_ops_s on stat_grid"},
	{Name: "cache.share_of_stat_pct", Unit: "%", Better: lower, Moves: "none: share of perf.stat_ms"},
	{Name: "cache.l1d_mpki", Unit: "1/kinst", Better: lower, Moves: "none: simulated statistic, must stay identical"},

	{Name: "perf.stat_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on stat_grid"},
	{Name: "perf.record_window_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on replay_grid"},

	{Name: "pipeline.replay_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on replay_grid"},
	{Name: "pipeline.mops_per_s", Unit: "Mop/s", Better: higher, Moves: "sim_minst_per_s on replay_grid"},
	{Name: "pipeline.ipc", Unit: "inst/cycle", Better: higher, Moves: "none: simulated statistic, must stay identical"},
	{Name: "cbp.championship_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on replay_grid"},

	{Name: "harness.cellcache_hit_us", Unit: "us", Better: lower, Moves: "latency_p50_ms on serve_warm by <1%"},
	{Name: "harness.cellcache_hits", Unit: "count", Better: higher, Moves: "none: must be 0 on stat_grid"},
	{Name: "harness.cellcache_misses", Unit: "count", Better: lower, Moves: "none: one per distinct cell"},
	{Name: "harness.runcell_overhead_us", Unit: "us", Better: lower, Moves: "throughput_ops_s on stat_grid, serve_cold by <1%"},

	{Name: "sched.task_overhead_us", Unit: "us", Better: lower, Moves: "latency_p95_ms on serve_cold, live_ladder"},
	{Name: "sched.pops", Unit: "count", Better: higher, Moves: "none: scheduling counter"},
	{Name: "sched.steals", Unit: "count", Better: lower, Moves: "latency_p95_ms on serve_cold, live_ladder"},
	{Name: "sched.parks", Unit: "count", Better: lower, Moves: "cpu_s_per_op on serve_cold, live_ladder"},
	{Name: "sched.steal_share_pct", Unit: "%", Better: lower, Moves: "latency_p95_ms on serve_cold, live_ladder"},

	{Name: "service.submit_ms_p50", Unit: "ms", Better: lower, Moves: "latency_p50_ms on serve_warm"},
	{Name: "service.accept_to_done_ms_p50", Unit: "ms", Better: lower, Moves: "latency_p50_ms on serve_cold"},
	{Name: "service.fetch_ms_p50", Unit: "ms", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on serve_warm"},
	{Name: "service.polls_per_job", Unit: "count", Better: lower, Moves: "allocs_per_op, cpu_s_per_op on serve_cold"},
	{Name: "service.execute_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s on serve_cold, gate_mix"},
	{Name: "service.overhead_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on serve_warm"},
	{Name: "service.spec_key_us", Unit: "us", Better: lower, Moves: "latency_p50_ms on serve_warm"},
	{Name: "service.result_encode_us", Unit: "us", Better: lower, Moves: "throughput_ops_s on serve_cold by <1%"},
	{Name: "service.retries_429", Unit: "count", Better: lower, Moves: "latency_p95_ms on serve_cold"},
	{Name: "service.cached_at_submit_pct", Unit: "%", Better: higher, Moves: "none: 0 on serve_cold, 100 on serve_warm"},
	{Name: "service.store_put_us", Unit: "us", Better: lower, Moves: "throughput_ops_s on serve_cold by <2%"},
	{Name: "service.store_get_us", Unit: "us", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on serve_warm"},

	{Name: "cluster.route_overhead_ms", Unit: "ms", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on gate_mix"},
	{Name: "cluster.ring_owners_ns", Unit: "ns", Better: lower, Moves: "latency_p50_ms on gate_mix"},
	{Name: "cluster.warm_route_pct", Unit: "%", Better: higher, Moves: "throughput_ops_s on gate_mix"},
	{Name: "cluster.hedges_launched", Unit: "count", Better: lower, Moves: "cpu_s_per_op on gate_mix"},
	{Name: "cluster.hedges_won", Unit: "count", Better: higher, Moves: "latency_p50_ms on gate_mix"},
	{Name: "cluster.failovers", Unit: "count", Better: lower, Moves: "none: must be 0 without chaos"},
	{Name: "cluster.replicas_pushed", Unit: "count", Better: lower, Moves: "cpu_s_per_op, allocs_per_op on gate_mix"},
	{Name: "cluster.shard_imbalance_pct", Unit: "%", Better: lower, Moves: "throughput_ops_s on gate_mix"},
	{Name: "cluster.latency_p95_ms", Unit: "ms", Better: lower, Moves: "none: gate_mix tail, hedge-noisy, ungated"},

	{Name: "live.feed_ms_per_gop", Unit: "ms", Better: lower, Moves: "throughput_ops_s, latency_p50_ms on live_ladder"},
	{Name: "live.encode_share_pct", Unit: "%", Better: higher, Moves: "none: share of Feed spent in Encode"},
	{Name: "live.shared_gops", Unit: "count", Better: higher, Moves: "sim_minst_per_s on live_ladder"},
	{Name: "live.share_saved_inst_pct", Unit: "%", Better: higher, Moves: "throughput_ops_s on live_ladder"},
	{Name: "live.deadline_misses", Unit: "count", Better: lower, Moves: "none: must be 0"},
	{Name: "live.degrade_steps", Unit: "count", Better: lower, Moves: "none: modeled policy decisions"},

	{Name: "obs.execute_observed_overhead_pct", Unit: "%", Better: lower, Moves: "throughput_ops_s on serve_cold when vcprofd runs with -trace"},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: lower, Moves: "none: the running workload's tail pooled over the run, burst-noisy, ungated"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Moves: "none: price of the bench-side spans"},
	{Name: "bench.host_factor", Unit: "ratio", Better: lower, Moves: "none: reference kernel time over nominal during the traced loop; layer rows are raw host time, end-to-end rows are divided by their run's factor"},
}

// metricValue is the wire form of one measured number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireMetrics renders measured values in table order, failing on a
// table row that was never measured so a silent gap cannot ship.
func wireMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("vcbench: metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

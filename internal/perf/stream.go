package perf

import (
	"vcprof/internal/obs"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/topdown"
)

// Deterministic counters for the perf-stat façade, mirroring the
// pipeline replayer's: one Stat run contributes once, at completion.
// vcperf derives live MPKIs from these plus the uarch cache counters.
var (
	obsStatRuns         = obs.NewCounter("perf.stat.runs")
	obsStatInstructions = obs.NewCounter("perf.stat.instructions")
	obsStatCycles       = obs.NewCounter("perf.stat.cycles")
	obsStatBranches     = obs.NewCounter("perf.stat.branches")
	obsStatBranchMisses = obs.NewCounter("perf.stat.branch_misses")
)

// tdFlushEvery is the streaming granularity of the perf façade: every
// this many dynamic branches the flusher recomputes the provisional
// top-down from the live monitors. Branches are a few percent of the
// mix, so this is on the order of a million instructions per flush —
// frequent against encode runtimes, invisible against sink costs.
const tdFlushEvery = 1 << 13

// tdFlusher is a BranchSink that streams provisional top-down
// snapshots mid-encode. fig5/fig16-class cells measure through
// perf.Stat (not the pipeline replayer), so live top-down for them
// must come from here: the flusher reapplies the same cycle model and
// Yasin formulas the final result uses, over the counters accumulated
// so far, and pushes the cumulative snapshot to the run's producer.
// It runs on the encode goroutine (Stat forces Threads=1), so reading
// the live monitors is race-free.
type tdFlusher struct {
	prod *topdown.Producer
	tc   *trace.Ctx
	mon  *bpred.Monitor
	hier *cache.Hierarchy
	n    uint64
}

func (f *tdFlusher) Branch(pc trace.PC, _ bool) { f.Loop(pc, 1) }

// Loop flushes once per tdFlushEvery mark the run crosses, so a run
// triggers as many flushes as its branches would one by one.
func (f *tdFlusher) Loop(_ trace.PC, iters int) {
	marks := f.n / tdFlushEvery
	f.n += uint64(iters)
	for ; marks < f.n/tdFlushEvery; marks++ {
		f.flush()
	}
}

func (f *tdFlusher) flush() {
	insts := f.tc.Total()
	if insts == 0 {
		return
	}
	if _, _, slots, err := cycleModel(insts, &f.tc.Mix, f.mon.Mispredict, f.mon.Taken, f.hier); err == nil {
		f.prod.Observe(slots)
	}
}

// slotsOf converts a breakdown back into absolute slots over the given
// total, clamping cumulatively so the classes always partition it.
func slotsOf(b topdown.Breakdown, total uint64) topdown.Slots {
	sl := topdown.Slots{Total: total}
	sl.Retiring = clampSlots(b.Retiring, total, total)
	sl.BadSpec = clampSlots(b.BadSpec, total, total-sl.Retiring)
	sl.Frontend = clampSlots(b.Frontend, total, total-sl.Retiring-sl.BadSpec)
	sl.Backend = total - sl.Retiring - sl.BadSpec - sl.Frontend
	return sl
}

func clampSlots(frac float64, total, rem uint64) uint64 {
	if frac <= 0 {
		return 0
	}
	n := uint64(frac * float64(total))
	if n > rem {
		n = rem
	}
	return n
}

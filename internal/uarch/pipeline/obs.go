package pipeline

import (
	"vcprof/internal/obs"
	"vcprof/internal/uarch/cache"
)

// Process-wide obs counters for the out-of-order replay simulator.
// One Run contributes once, at completion; totals aggregate every
// replay in the process and are deterministic for a fixed set of
// computed cells.
var (
	obsReplays     = obs.NewCounter("uarch.pipeline.replays")
	obsOps         = obs.NewCounter("uarch.pipeline.ops")
	obsCycles      = obs.NewCounter("uarch.pipeline.cycles")
	obsBranches    = obs.NewCounter("uarch.pipeline.branches")
	obsMispredicts = obs.NewCounter("uarch.pipeline.mispredicts")
	obsStallROB    = obs.NewCounter("uarch.pipeline.stall_rob")
	obsStallRS     = obs.NewCounter("uarch.pipeline.stall_rs")
	obsStallLQ     = obs.NewCounter("uarch.pipeline.stall_lq")
	obsStallSQ     = obs.NewCounter("uarch.pipeline.stall_sq")
	obsStallFU     = obs.NewCounter("uarch.pipeline.stall_fu")

	// Final slot attribution (top-down level 1). Deterministic like the
	// rest: one replay adds its exact slot classes once, at completion —
	// mid-run streaming goes through topdown.Producer snapshots, never
	// through these counters, so goldens stay worker-count independent.
	obsSlotsTotal    = obs.NewCounter("uarch.pipeline.slots_total")
	obsSlotsRetiring = obs.NewCounter("uarch.pipeline.slots_retiring")
	obsSlotsBadSpec  = obs.NewCounter("uarch.pipeline.slots_badspec")
	obsSlotsFrontend = obs.NewCounter("uarch.pipeline.slots_frontend")
	obsSlotsBackend  = obs.NewCounter("uarch.pipeline.slots_backend")
)

// flushObs records one completed replay's headline events, including
// the data-side cache traffic of the simulated hierarchy.
func flushObs(res *Result, mem *cache.Hierarchy) {
	obsReplays.Add(1)
	obsOps.Add(res.Ops)
	obsCycles.Add(res.Cycles)
	obsBranches.Add(res.Branches)
	obsMispredicts.Add(res.Mispredicts)
	obsStallROB.Add(res.StallROB)
	obsStallRS.Add(res.StallRS)
	obsStallLQ.Add(res.StallLQ)
	obsStallSQ.Add(res.StallSQ)
	obsStallFU.Add(res.StallFU)
	obsSlotsTotal.Add(res.TotalSlots)
	obsSlotsRetiring.Add(res.RetiringSlots)
	obsSlotsBadSpec.Add(res.BadSpecSlots)
	obsSlotsFrontend.Add(res.FrontendSlots)
	obsSlotsBackend.Add(res.BackendSlots)
	mem.FlushObs()
}

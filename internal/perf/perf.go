// Package perf substitutes for the paper's Linux-perf measurement flow:
// it runs an encode with live simulators attached to the instrumentation
// layer (the modeled machine's branch predictor and cache hierarchy),
// collects the same counters perf stat would read, derives cycles and
// IPC from an analytical core model, and classifies pipeline slots with
// the top-down method. It also provides the gprof substitute (flat
// function profiles) and the Pin substitute (recording a micro-op window
// halfway through the run) used by the CBP experiments.
package perf

import (
	"context"
	"fmt"

	"vcprof/internal/encoders"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/machine"
	"vcprof/internal/uarch/topdown"
	"vcprof/internal/video"
)

// Counters is the result of one measured encode, the analogue of a perf
// stat run plus derived metrics.
type Counters struct {
	Instructions uint64
	Mix          trace.Mix

	Branches      uint64
	BranchMisses  uint64
	BranchMissPct float64
	BranchMPKI    float64

	L1DMPKI float64
	L2MPKI  float64
	LLCMPKI float64

	Cycles uint64
	IPC    float64

	TopDown topdown.Breakdown

	// Encode outputs, carried through for convenience.
	PSNR        float64
	SSIM        float64
	BitrateKbps float64
	Bytes       int
	WallSeconds float64
	WorkerInsts []uint64
	// FrameStages carries the encode's per-frame stage breakdown for
	// the obs trace (see encoders.Result.FrameStages).
	FrameStages []trace.StageCounts
}

// ModeledMS is the modeled wall time of the measured encode in
// milliseconds: retired cycles at the measurement machine's clock.
func (c *Counters) ModeledMS() float64 { return float64(c.Cycles) / machine.Xeon().ClockHz * 1e3 }

// Stat encodes the clip with full live instrumentation on worker 0 and
// returns the measured counters. Characterization runs are
// single-threaded like the paper's perf runs; opts.Threads and
// opts.NewWorkerCtx are overridden. The machine measured on is the
// paper's (Broadwell's predictor is TAGE-like).
func Stat(ctx context.Context, enc encoders.Encoder, clip *video.Clip, opts encoders.Options) (*Counters, error) {
	if enc == nil || clip == nil {
		return nil, fmt.Errorf("perf: nil encoder or clip")
	}
	hier, err := cache.Acquire(machine.Xeon())
	if err != nil {
		return nil, err
	}
	defer hier.Release()
	return statOn(ctx, hier, enc, clip, opts)
}

// statOn is Stat on a cold hierarchy the caller supplies, with a
// predictor it borrows for the encode.
func statOn(ctx context.Context, hier *cache.Hierarchy, enc encoders.Encoder, clip *video.Clip, opts encoders.Options) (*Counters, error) {
	pred, err := bpred.Acquire(machine.Xeon().Predictor)
	if err != nil {
		return nil, err
	}
	defer bpred.Release(pred)
	mon := bpred.NewMonitor(pred)
	tc := trace.New()
	tc.AttachBranchSink(mon)
	tc.AttachMemSink(cache.Sink{Hierarchy: hier})
	// Streaming top-down: attached last so each flush sees the monitor
	// already updated for the triggering branch. Disabled (nil producer)
	// unless the context carries accumulators.
	prod := topdown.StartProducer(ctx)
	if prod != nil {
		tc.AttachBranchSink(&tdFlusher{prod: prod, tc: tc, mon: mon, hier: hier})
	}

	opts.Threads = 1
	opts.NewWorkerCtx = func(int) *trace.Ctx { return tc }
	// Never shard: the live cache-hierarchy and predictor sinks are
	// access-order sensitive, so stat runs stay on the inline path.
	opts.Pool = nil
	res, err := enc.Encode(ctx, clip, opts)
	if err != nil {
		prod.Abort()
		return nil, err
	}

	c := &Counters{
		Instructions: res.Insts,
		Mix:          res.Mix,
		Branches:     mon.Branches,
		BranchMisses: mon.Mispredict,
		PSNR:         res.PSNR,
		SSIM:         res.SSIM,
		BitrateKbps:  res.BitrateKbps,
		Bytes:        res.Bytes,
		WallSeconds:  res.Wall.Seconds(),
		WorkerInsts:  res.WorkerInsts,
		FrameStages:  res.FrameStages,
	}
	hier.FlushObs()
	if mon.Branches > 0 {
		c.BranchMissPct = 100 * mon.MissRate()
	}
	c.BranchMPKI = mon.MPKI(res.Insts)
	c.L1DMPKI, c.L2MPKI, c.LLCMPKI = hier.MPKI(res.Insts)

	cyc, td, slots, err := cycleModel(res.Insts, &res.Mix, mon.Mispredict, mon.Taken, hier)
	if err != nil {
		prod.Abort()
		return nil, err
	}
	c.Cycles = cyc
	c.IPC = float64(res.Insts) / float64(cyc)
	c.TopDown = td
	prod.Commit(slots)
	obsStatRuns.Add(1)
	obsStatInstructions.Add(res.Insts)
	obsStatCycles.Add(cyc)
	obsStatBranches.Add(mon.Branches)
	obsStatBranchMisses.Add(mon.Mispredict)
	return c, nil
}

// cycleModel derives execution cycles from counters, the way top-down
// practitioners reconstruct CPI stacks: a width-bound base, per-class
// issue-port bounds, exposed memory latency (scaled by an out-of-order
// overlap factor), branch-flush penalties and a frontend redirect term.
// It then feeds the same counters to Yasin's formulas — one definition
// shared by the final result and every mid-run flush, so the stream
// converges to the reported breakdown.
func cycleModel(insts uint64, mix *trace.Mix, mispredicts, takenBranches uint64, h *cache.Hierarchy) (cycles uint64, td topdown.Breakdown, slots topdown.Slots, err error) {
	m := machine.Xeon()
	base := insts / uint64(m.Width)
	// Issue-port bounds: each class's ops over its units, rounded up.
	perUnit := func(ops uint64, units int) uint64 { return (ops + uint64(units) - 1) / uint64(units) }
	vecOps := mix[trace.OpAVX] + mix[trace.OpSSE]
	portBound := max(base, perUnit(vecOps, m.VecUnits),
		perUnit(mix[trace.OpLoad], m.LoadPorts), perUnit(mix[trace.OpStore], m.StorePorts))
	// Dependence-chain core stalls: unrolled kernels keep several vector
	// chains live, exposing ~1/8 of the vector latency.
	coreStall := vecOps * uint64(m.VecLatency) / 8
	coreStall += portBound - base // port contention is core-bound time

	// Exposed memory latency: each level's miss pays the next level's
	// latency delta; the OoO window hides ~3/4 of it.
	l1m, l2m, llm := h.L1.Stats().Misses, h.L2.Stats().Misses, h.LLC.Stats().Misses
	l1p, l2p, llp := m.MissPenalties()
	memStall := (l1m*uint64(l1p) + l2m*uint64(l2p) + llm*uint64(llp)) / 4

	// Branch redirects: full flush plus refill on mispredict; taken
	// branches break fetch groups and cost decode bubbles.
	badSpec := mispredicts * uint64(m.FlushCycles())
	feStall := takenBranches * 3 / 2

	cycles = base + coreStall + memStall + badSpec + feStall
	td, err = topdown.FromCounters(topdown.Counters{
		Instructions:          insts,
		Cycles:                cycles,
		Width:                 m.Width,
		BranchMispredicts:     mispredicts,
		MispredictPenalty:     m.FlushCycles(),
		L1DMisses:             l1m,
		L2Misses:              l2m,
		LLCMisses:             llm,
		L1DLat:                l1p,
		L2Lat:                 l2p,
		LLCLat:                llp,
		FrontendStallCycles:   feStall * 2 / 3, // redirect bubbles (latency)
		FrontendBWStallCycles: feStall / 3,     // fetch-group breaks (bandwidth)
		CoreStallCycles:       coreStall,
	})
	return cycles, td, slotsOf(td, cycles*uint64(m.Width)), err
}

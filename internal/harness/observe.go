// Deterministic observation of engine runs. Spans are assembled after
// each experiment's parallel section completes, walking the cell grid
// in index order on the experiment's own lane, so the trace is
// byte-identical for any worker count: the parallel execution decides
// nothing about the trace but how fast it was produced. Durations are
// modeled quantities per cell kind (instructions, recorded micro-ops,
// simulated cycles, task-graph work) — never host time.
package harness

import (
	"vcprof/internal/encoders"
	"vcprof/internal/obs"
)

// Engine counters. The cell/clip cache counters are deterministic:
// each distinct cell is computed exactly once (joins and repeats are
// hits), so the split depends only on the requested grids, not on
// scheduling. Worker occupancy is genuinely scheduling-dependent and
// therefore volatile — it renders for humans but never enters goldens.
var (
	obsExperiments   = obs.NewCounter("harness.engine.experiments")
	obsCells         = obs.NewCounter("harness.engine.cells")
	obsCellHits      = obs.NewCounter("harness.cellcache.hits")
	obsCellMisses    = obs.NewCounter("harness.cellcache.misses")
	obsClipGens      = obs.NewCounter("harness.clipcache.generations")
	obsOccupancyPeak = obs.NewVolatileCounter("harness.engine.occupancy_peak")
)

var (
	obsExperimentName = obs.Name("experiment")
	obsCellNames      = func() [5]obs.NameID {
		var a [5]obs.NameID
		for k := range a {
			a[k] = obs.Name("cell/" + CellKind(k).String())
		}
		return a
	}()
)

// observeExperiment replays one completed experiment onto its session
// lane. res is indexed like cells (the engine's assembly contract).
func observeExperiment(tr *obs.Trace, e Experiment, cells []Cell, res []CellResult) {
	if !tr.Enabled() {
		return
	}
	root := tr.BeginArg(obsExperimentName, e.ID)
	for i, c := range cells {
		nm := obs.Name("cell/" + c.Kind.String())
		if int(c.Kind) < len(obsCellNames) {
			nm = obsCellNames[c.Kind]
		}
		sp := tr.BeginArg(nm, c.String())
		r := res[i]
		switch {
		case r.Enc != nil:
			encoders.ObserveFrameStages(tr, r.Enc.FrameStages)
		case r.Stat != nil:
			encoders.ObserveFrameStages(tr, r.Stat.FrameStages)
		case r.Rec != nil:
			tr.Advance(uint64(r.Rec.Ops.Len()))
		case r.Pipe != nil:
			tr.Advance(r.Pipe.Cycles)
		case r.Sched != nil:
			tr.Advance(r.Sched.TotalWork())
		}
		sp.End()
	}
	root.End()
}

// observeStageHistograms feeds each completed cell's per-frame stage
// counts into the deterministic encode-stage histograms. Runs after
// the parallel section like observeExperiment, but is not
// session-gated: histograms accumulate registry-wide regardless of
// tracing, and the observed values are modeled counts, so totals stay
// worker-count independent.
func observeStageHistograms(res []CellResult) {
	for _, r := range res {
		switch {
		case r.Enc != nil:
			encoders.ObserveStageHistograms(r.Enc.FrameStages)
		case r.Stat != nil:
			encoders.ObserveStageHistograms(r.Stat.FrameStages)
		}
	}
}

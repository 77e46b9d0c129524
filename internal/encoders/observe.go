package encoders

import (
	"strconv"

	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
	"vcprof/internal/trace"
)

// Span names for the per-frame stage breakdown, interned once. The
// stage names come from trace.Stage so the trace vocabulary and the
// span vocabulary cannot drift apart.
var (
	obsFrameName  = obs.Name("frame")
	obsStageNames = func() [trace.NumStages]obs.NameID {
		var a [trace.NumStages]obs.NameID
		for i := range a {
			a[i] = obs.Name("stage/" + trace.Stage(i).String())
		}
		return a
	}()
)

// ObserveFrameStages appends one span per frame, with one child span
// per active pipeline stage, advancing the virtual clock by the stage's
// instruction count. The input is deterministic across thread counts
// (see Result.FrameStages), so the emitted spans are too. Zero-count
// stages are skipped; the frame span's duration is the frame's total
// instructions.
func ObserveFrameStages(tr *obs.Trace, frames []trace.StageCounts) {
	if !tr.Enabled() {
		return
	}
	for i := range frames {
		fs := tr.BeginArg(obsFrameName, "f"+strconv.Itoa(i))
		for s, n := range frames[i] {
			if n == 0 {
				continue
			}
			ss := tr.Begin(obsStageNames[s])
			tr.Advance(n)
			ss.End()
		}
		fs.End()
	}
}

// ObserveResult appends the encode's frame/stage spans to tr — the
// `vlab encode -trace` entry point for the obs trace of a single encode.
func ObserveResult(tr *obs.Trace, res *Result) {
	if !tr.Enabled() || res == nil {
		return
	}
	ObserveFrameStages(tr, res.FrameStages)
}

// Per-stage encode-tick histograms, one per pipeline stage, keyed by
// the trace.Stage vocabulary like the span names above. Deterministic:
// the observed values are per-frame modeled instruction counts, which
// are thread- and worker-count independent.
var stageTickHists = func() [trace.NumStages]*obs.Histogram {
	var a [trace.NumStages]*obs.Histogram
	for i := range a {
		a[i] = obs.NewHistogram("encode.stage_ticks."+trace.Stage(i).String(), telemetry.TickBuckets)
	}
	return a
}()

// ObserveStageHistograms records every frame's per-stage instruction
// counts into the stage histograms. Unlike the span observers this is
// not session-gated: histograms are registry-wide like counters, so
// stage distributions accumulate whether or not a trace session is
// attached. Zero-count stages are skipped, matching the span rule.
func ObserveStageHistograms(frames []trace.StageCounts) {
	for i := range frames {
		for s, n := range frames[i] {
			if n == 0 {
				continue
			}
			stageTickHists[s].Observe(n)
		}
	}
}

// StageHistogramName returns the registry name of one stage's
// histogram, for telemetry gauges that track per-stage throughput.
func StageHistogramName(s trace.Stage) string {
	return "encode.stage_ticks." + s.String()
}

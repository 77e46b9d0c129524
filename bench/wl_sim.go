package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/perf"
	"vcprof/internal/uarch/pipeline"
)

// simScale is the clip size the simulator workloads encode, tuned
// down from the harness's characterization scale (4 frames, div 16)
// until a third of the stat grid fits a ~1.7 s pass.
var simScale = harness.Scale{Frames: 2, ScaleDiv: 20}

func (p params) clips() []string {
	if p.short {
		return benchClips[:1]
	}
	return benchClips
}

// pregenerate fills the harness clip cache so no timed op pays for
// video.Generate.
func pregenerate(sc harness.Scale, clips []string) error {
	for _, name := range clips {
		if _, err := sc.Clip(name); err != nil {
			return err
		}
	}
	return nil
}

func digestOf(format string, args ...any) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
}

// ---------------------------------------------------------------------
// stat_grid

// statGrid runs harness.RunCell over the CellStat grid fig4–7 share:
// 5 families × 4 clips × 3 CRF points at mid preset, 60 distinct
// cells. The grid is dealt into three passes of 20 (every family and
// clip in each, CRF points rotated), after which the memo cache is
// reset so the next cycle is as cold as the first.
type statGrid struct {
	params
	cells  [][]harness.Cell
	hits   atomic.Int64
	misses atomic.Int64
}

const statCRFPoints = 3

func (w *statGrid) name() string         { return "stat_grid" }
func (w *statGrid) passSeconds() float64 { return 1.7 }

func (w *statGrid) setup(context.Context) error {
	harness.ResetCellCache()
	harness.ResetClipCache()
	return pregenerate(simScale, w.clips())
}

func (w *statGrid) teardown() {}

func (w *statGrid) cell(pt point) harness.Cell {
	return simScale.StatCell(pt.fam, pt.clip, pt.crf, pt.preset)
}

func (w *statGrid) warmup(ctx context.Context) error {
	// A point no pass visits: the anchor grid starts at CRF 1.
	_, _, err := harness.RunCell(ctx, w.cell(point{fam: encoders.X264, clip: w.clips()[0], crf: 0, preset: midPreset(encoders.X264)}))
	return err
}

func (w *statGrid) plan(n int) []int {
	w.cells = make([][]harness.Cell, n)
	units := make([]int, n)
	cycle := deal(gridPoints(w.clips(), statCRFPoints, nil, 0, []int{0}), famClip, statCRFPoints)
	for p := range w.cells {
		rng := mixRNG(w.seed, w.name(), p)
		for _, pt := range shuffled(rng, cycle[p%statCRFPoints]) {
			w.cells[p] = append(w.cells[p], w.cell(pt))
		}
		units[p] = len(w.cells[p])
	}
	return units
}

func (w *statGrid) enterPass(pass int) {
	if pass > 0 && pass%statCRFPoints == 0 {
		harness.ResetCellCache()
	}
}

func (w *statGrid) run(ctx context.Context, c *client, pass, unit int) []op {
	cell := w.cells[pass][unit]
	id := pass<<16 | unit
	root := c.begin("op", id, -1)
	h := c.begin("harness.RunCell", id, root)
	t0 := time.Now()
	res, hit, err := harness.RunCell(ctx, cell)
	lat := time.Since(t0)
	c.end(h)
	c.end(root)
	if err != nil {
		return []op{{latency: lat, err: err}}
	}
	if hit {
		w.hits.Add(1)
	} else {
		w.misses.Add(1)
	}
	st := res.Stat
	td := st.TopDown
	if sum := td.Retiring + td.BadSpec + td.Frontend + td.Backend; math.Abs(sum-1) > 0.001 {
		err = fmt.Errorf("%v: top-down sums to %v", cell, sum)
	} else if hit {
		err = fmt.Errorf("%v: memo-cache hit on a distinct-cell grid", cell)
	}
	return []op{{
		latency: lat,
		insts:   st.Instructions,
		err:     err,
		// WallSeconds is host time; everything else is modeled.
		digest: digestOf("%v insts=%d mix=%v br=%d miss=%d mpki=%v/%v/%v cyc=%d td=%+v psnr=%v ssim=%v bytes=%d",
			cell, st.Instructions, st.Mix, st.Branches, st.BranchMisses,
			st.L1DMPKI, st.L2MPKI, st.LLCMPKI, st.Cycles, td, st.PSNR, st.SSIM, st.Bytes),
	}}
}

func (w *statGrid) verify(context.Context) error { return nil }

func (w *statGrid) layers(_ *loopResult, out map[string]float64) {
	out["harness.cellcache_hits"] = float64(w.hits.Load())
	out["harness.cellcache_misses"] = float64(w.misses.Load())
}

// ---------------------------------------------------------------------
// replay_grid

// zoo is the nine predictors bpred.NewByName knows.
var zoo = []string{
	"gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB", "bimodal-8KB",
	"perceptron-8KB", "perceptron-64KB", "tage-l-8KB", "tage-l-64KB",
}

// replayGrid is the offline path: record a halfway µop window, replay
// it through the out-of-order core model, then run the predictor
// championship over its branches. The 20-point grid (family × clip)
// is dealt into four passes of five: every family in each, clips
// rotated.
type replayGrid struct {
	params
	points  [][]point
	retired atomic.Uint64
	cycles  atomic.Uint64
	uops    atomic.Uint64
}

func (w *replayGrid) name() string         { return "replay_grid" }
func (w *replayGrid) passSeconds() float64 { return 1.9 }

// windowOps bounds the recorded window.
func (w *replayGrid) windowOps() uint64 {
	if w.short {
		return 100_000
	}
	return 1_000_000
}

func (w *replayGrid) setup(context.Context) error {
	harness.ResetClipCache()
	return pregenerate(simScale, w.clips())
}

func (w *replayGrid) teardown() {}

func (w *replayGrid) warmup(ctx context.Context) error {
	o := w.replay(ctx, &client{}, point{fam: encoders.X264, clip: w.clips()[0], crf: 0, preset: midPreset(encoders.X264)}, 0)
	w.retired.Store(0)
	w.cycles.Store(0)
	w.uops.Store(0)
	return o[0].err
}

func (w *replayGrid) plan(n int) []int {
	w.points = make([][]point, n)
	units := make([]int, n)
	cycle := deal(gridPoints(w.clips(), 1, nil, 0, []int{0}),
		func(pt point) string { return string(pt.fam) }, len(w.clips()))
	for p := range w.points {
		w.points[p] = shuffled(mixRNG(w.seed, w.name(), p), cycle[p%len(cycle)])
		units[p] = len(w.points[p])
	}
	return units
}

func (w *replayGrid) enterPass(int) {}

func (w *replayGrid) run(ctx context.Context, c *client, pass, unit int) []op {
	return w.replay(ctx, c, w.points[pass][unit], pass<<16|unit)
}

func (w *replayGrid) replay(ctx context.Context, c *client, pt point, id int) []op {
	fail := func(t0 time.Time, err error) []op { return []op{{latency: time.Since(t0), err: err}} }

	root := c.begin("op", id, -1)
	defer c.end(root)
	t0 := time.Now()
	clip, err := simScale.Clip(pt.clip)
	if err != nil {
		return fail(t0, err)
	}
	enc := encoders.MustNew(pt.fam)
	opts := encoders.Options{CRF: pt.crf, Preset: pt.preset}

	h := c.begin("perf.RecordWindow", id, root)
	rec, _, err := perf.RecordWindow(ctx, enc, clip, opts, 0.5, w.windowOps())
	c.end(h)
	if err != nil {
		return fail(t0, err)
	}

	h = c.begin("pipeline.Run", id, root)
	sim, err := pipeline.New(pipeline.Broadwell())
	var pr *pipeline.Result
	if err == nil {
		pr, err = sim.Run(rec.Ops)
	}
	c.end(h)
	if err != nil {
		return fail(t0, err)
	}

	h = c.begin("cbp.Championship", id, root)
	tr, err := cbp.FromRecorder(pt.clip, rec)
	var scores []cbp.Score
	if err == nil {
		scores, err = cbp.Championship(zoo, []cbp.Trace{tr})
	}
	c.end(h)
	lat := time.Since(t0)
	if err != nil {
		return fail(t0, err)
	}

	slots := pr.RetiringSlots + pr.BadSpecSlots + pr.FrontendSlots + pr.BackendSlots
	if pr.TotalSlots == 0 || math.Abs(float64(slots)/float64(pr.TotalSlots)-1) > 0.001 {
		err = fmt.Errorf("%v: top-down slots %d of %d", pt, slots, pr.TotalSlots)
	} else if len(scores) != len(zoo) {
		err = fmt.Errorf("%v: %d championship scores, want %d", pt, len(scores), len(zoo))
	}
	w.retired.Add(pr.Retired)
	w.cycles.Add(pr.Cycles)
	w.uops.Add(pr.Ops)
	return []op{{
		latency: lat,
		insts:   pr.Ops,
		err:     err,
		digest:  digestOf("%v pipe=%+v scores=%+v", pt, *pr, scores),
	}}
}

func (w *replayGrid) verify(context.Context) error { return nil }

func (w *replayGrid) layers(res *loopResult, out map[string]float64) {
	perOp := func(name string) (float64, time.Duration) {
		d, n := totalOf(res.lanes, name)
		if n == 0 {
			return 0, 0
		}
		return ms(d) / float64(n), d
	}
	out["perf.record_window_ms"], _ = perOp("perf.RecordWindow")
	var pipe time.Duration
	out["pipeline.replay_ms"], pipe = perOp("pipeline.Run")
	out["cbp.championship_ms"], _ = perOp("cbp.Championship")
	if pipe > 0 {
		out["pipeline.mops_per_s"] = float64(w.uops.Load()) / 1e6 / pipe.Seconds()
	}
	if cyc := w.cycles.Load(); cyc > 0 {
		out["pipeline.ipc"] = float64(w.retired.Load()) / float64(cyc)
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcprof/internal/cluster"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
)

// encodeSpec lowers a grid point to the wire spec vcload would send.
func encodeSpec(pt point, frames, div, priority int) service.JobSpec {
	s := service.JobSpec{
		Kind: service.KindEncode, Priority: priority,
		Family: string(pt.fam), Clip: pt.clip, Frames: frames, ScaleDiv: div,
		CRF: pt.crf, Preset: pt.preset, Threads: 1,
	}
	s.Normalize()
	return s
}

// outsideSpec is the warm-up op: CRF 0 is below every grid anchor, so
// no measured pass can contain it.
func outsideSpec(clip string, frames, div int) service.JobSpec {
	return encodeSpec(point{fam: encoders.X264, clip: clip, crf: 0, preset: midPreset(encoders.X264)}, frames, div, 0)
}

// checkBody is the per-op output check of every served workload: the
// document must carry the key the client computed, and yields the
// instruction count its encode retired.
func checkBody(spec *service.JobSpec, body []byte) (uint64, error) {
	r, err := service.DecodeResult(body)
	if err != nil {
		return 0, err
	}
	if r.Key != spec.Key() {
		return 0, fmt.Errorf("result key %s != spec key %s", r.Key, spec.Key())
	}
	const tag = "\ninstructions "
	i := strings.Index(r.Output, tag)
	if i < 0 {
		return 0, fmt.Errorf("result %s has no instruction count", r.Key)
	}
	rest := r.Output[i+len(tag):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseUint(rest, 10, 64)
}

// served is what the daemon-backed workloads share: the spec lists,
// the per-op wire timings, a few kept bodies for the byte-equality
// check, and the /metrics snapshot taken as the loop starts.
type served struct {
	params
	frames, div int    // clip size of every spec; fixed at construction, the plan needs it
	base        string // daemon or gate URL
	metricsURL  string // daemon whose /metrics carries the sched.* counters
	layer       string // span prefix: "service" or "cluster"
	specs       [][]service.JobSpec
	repeatFrom  int    // units ≥ repeatFrom resubmit unit-repeatFrom (0 = never)
	stop        func() // shuts the environment down; nil before setup

	mu     sync.Mutex
	times  []driveTimes
	kept   map[int][]byte      // unit → body, pass 0 only
	first  map[[2]int][32]byte // (pass, spec) → digest of its first serve
	before *telemetry.ParsedProm
}

const keptBodies = 5

func (w *served) enterPass(pass int) {
	if pass == 0 {
		// Best effort: without the snapshot the sched.* rows read as
		// process totals, which a fresh child process makes equal.
		w.before, _ = scrape(context.Background(), http.DefaultClient, w.metricsURL)
	}
}

func (w *served) specAt(pass, unit int) (*service.JobSpec, int) {
	idx := unit
	if w.repeatFrom > 0 && unit >= w.repeatFrom {
		idx = unit - w.repeatFrom
	}
	return &w.specs[pass][idx], idx
}

func (w *served) run(ctx context.Context, c *client, pass, unit int) []op {
	spec, idx := w.specAt(pass, unit)
	id := pass<<16 | unit
	root := c.begin("op", id, -1)
	t0 := time.Now()
	body, dt, err := driveJob(ctx, c, w.base, w.layer, spec, id, root)
	lat := time.Since(t0)
	c.end(root)
	if err != nil {
		return []op{{latency: lat, err: err}}
	}
	insts, err := checkBody(spec, body)
	sum := sha256.Sum256(body)

	w.mu.Lock()
	w.times = append(w.times, dt)
	if pass == 0 && unit < keptBodies {
		w.kept[unit] = body
	}
	if w.repeatFrom > 0 {
		k := [2]int{pass, idx}
		if prev, ok := w.first[k]; !ok {
			w.first[k] = sum
		} else if prev != sum && err == nil {
			err = fmt.Errorf("%s: resubmission served different bytes", spec.Key())
		}
	}
	w.mu.Unlock()
	return []op{{latency: lat, insts: insts, digest: sum, err: err, aux: idx != unit}}
}

// verify holds the kept bodies against service.Execute run directly:
// whatever the daemon, store or gate did, the bytes must be the ones
// the engine renders.
func (w *served) verify(ctx context.Context) error {
	for unit := 0; unit < keptBodies; unit++ {
		body, ok := w.kept[unit]
		if !ok {
			continue
		}
		// Execute the document's own spec: a stored result carries the
		// scheduling hints (priority) of whichever submission computed
		// it, which need not be this op's; checkBody already pinned the
		// content key.
		doc, err := service.DecodeResult(body)
		if err != nil {
			return err
		}
		direct, err := service.Execute(ctx, &doc.Spec)
		if err != nil {
			return fmt.Errorf("direct execute %s: %w", doc.Key, err)
		}
		if !bytes.Equal(direct.Encode(), body) {
			return fmt.Errorf("%s: served bytes differ from direct service.Execute", doc.Key)
		}
	}
	return nil
}

// clientLayers reports the wire-protocol timings the loop's clients saw.
func (w *served) clientLayers(out map[string]float64) {
	var submit, wait, fetch []float64
	polls, retries, cached := 0, 0, 0
	for _, t := range w.times {
		submit = append(submit, ms(t.submit))
		wait = append(wait, ms(t.acceptToDone))
		fetch = append(fetch, ms(t.fetch))
		polls += t.polls
		retries += t.retries429
		if t.cached {
			cached++
		}
	}
	n := float64(len(w.times))
	if n == 0 {
		return
	}
	out["service.submit_ms_p50"] = median(submit)
	out["service.accept_to_done_ms_p50"] = median(wait)
	out["service.fetch_ms_p50"] = median(fetch)
	out["service.polls_per_job"] = float64(polls) / n
	out["service.retries_429"] = float64(retries)
	out["service.cached_at_submit_pct"] = 100 * float64(cached) / n
}

// schedLayers reads the shard pool's counters off /metrics, as a delta
// over the loop.
func (w *served) schedLayers(out map[string]float64) {
	after, err := scrape(context.Background(), http.DefaultClient, w.metricsURL)
	if err != nil {
		return
	}
	delta := func(name string) float64 {
		v := after.Scalars["vcprof_sched_"+name]
		if w.before != nil {
			v -= w.before.Scalars["vcprof_sched_"+name]
		}
		return v
	}
	schedRows(out, delta("pops"), delta("steals"), delta("parks"))
}

// schedRows fills the shard-pool rows from its counters.
func schedRows(out map[string]float64, pops, steals, parks float64) {
	out["sched.pops"], out["sched.steals"], out["sched.parks"] = pops, steals, parks
	out["sched.steal_share_pct"] = 0
	if pops+steals > 0 {
		out["sched.steal_share_pct"] = 100 * steals / (pops + steals)
	}
}

// prepare is the part of setup every served workload shares: cold
// caches, clear per-run records, pre-generated clips.
func (w *served) prepare() error {
	w.times = nil
	w.kept = map[int][]byte{}
	w.first = map[[2]int][32]byte{}
	harness.ResetCellCache()
	harness.ResetClipCache()
	return pregenerate(harness.Scale{Frames: w.frames, ScaleDiv: w.div}, w.clips())
}

// bootDaemon is setup for the single-daemon workloads.
func (w *served) bootDaemon(ctx context.Context) error {
	if err := w.prepare(); err != nil {
		return err
	}
	d, err := bootServer(ctx, w.scratch, "vcprofd", w.clients)
	if err != nil {
		return err
	}
	w.base, w.metricsURL, w.stop = d.base, d.base, d.stop
	return nil
}

func (w *served) teardown() {
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
}

func (w *served) warmup(ctx context.Context) error {
	c := newClients(1, nil)[0]
	defer c.http.CloseIdleConnections()
	spec := outsideSpec(w.clips()[0], w.frames, w.div)
	_, _, err := driveJob(ctx, c, w.base, w.layer, &spec, 0, -1)
	return err
}

// layers is what the single-daemon workloads own; gate_mix overrides it.
func (w *served) layers(_ *loopResult, out map[string]float64) {
	w.clientLayers(out)
	w.schedLayers(out)
}

// planGrid fills specs with one shuffled grid per pass; priorities are
// a seeded scheduling hint outside the content key.
func (w *served) planGrid(name string, n int, grid func(pass int) []point) []int {
	w.specs = make([][]service.JobSpec, n)
	units := make([]int, n)
	for p := range w.specs {
		rng := mixRNG(w.seed, name, p)
		for _, pt := range shuffled(rng, grid(p)) {
			w.specs[p] = append(w.specs[p], encodeSpec(pt, w.frames, w.div, rng.intn(3)))
		}
		units[p] = len(w.specs[p])
	}
	return units
}

// ---------------------------------------------------------------------
// serve_cold

// serveCold submits distinct encode specs to a daemon with a fresh
// store: family × clip × 4 CRFs × {mid, mid−1, mid+1} preset, 240
// specs, dealt into six passes of 40 (every family × clip twice in
// each). Later cycles shift every CRF by one step so keys stay
// distinct.
type serveCold struct{ served }

var coldPresetOffs = []int{0, -1, 1}

const (
	coldAnchors = 4
	coldCycle   = 6 // passes per 240-spec grid
)

func (w *serveCold) name() string         { return "serve_cold" }
func (w *serveCold) passSeconds() float64 { return 2.1 }

func (w *serveCold) setup(ctx context.Context) error { return w.bootDaemon(ctx) }

func (w *serveCold) plan(n int) []int {
	cycle, anchors := coldCycle, []int(nil)
	if w.short {
		cycle, anchors = len(coldPresetOffs), []int{1} // 15 specs, 5 per pass
	}
	if most := cycle * (anchorShifts(coldAnchors) + 1); n > most {
		n = most
	}
	var dealt [][]point
	return w.planGrid(w.name(), n, func(p int) []point {
		if p%cycle == 0 {
			dealt = deal(gridPoints(w.clips(), coldAnchors, anchors, p/cycle, coldPresetOffs), famClip, cycle)
		}
		return dealt[p%cycle]
	})
}

// ---------------------------------------------------------------------
// serve_warm

// serveWarm primes a daemon's store in setup and then cycles requests
// over the primed keys: compute is bypassed, so HTTP, admission, the
// job table and Store.Get are the whole cost.
type serveWarm struct{ served }

func (w *serveWarm) name() string         { return "serve_warm" }
func (w *serveWarm) passSeconds() float64 { return 1.0 }

// keys is the primed set: family × clip × CRF anchors.
func (w *serveWarm) keys() []point {
	anchors := 5 // × 5 families × 4 clips = 100 keys
	if w.short {
		anchors = 2
	}
	return gridPoints(w.clips(), anchors, nil, 0, []int{0})
}

// repsPerPass is how often a pass requests each key.
func (w *serveWarm) repsPerPass() int {
	if w.short {
		return 20
	}
	return 100
}

func (w *serveWarm) setup(ctx context.Context) error {
	if err := w.bootDaemon(ctx); err != nil {
		return err
	}
	return w.prime(ctx)
}

// prime computes every key once through the daemon, C at a time.
func (w *serveWarm) prime(ctx context.Context) error {
	keys := w.keys()
	clients := newClients(w.clients, nil)
	defer closeClients(clients)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(keys) && errs[ci] == nil; i += len(clients) {
				spec := encodeSpec(keys[i], w.frames, w.div, 0)
				_, _, errs[ci] = driveJob(ctx, c, w.base, w.layer, &spec, 0, -1)
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
	}
	return nil
}

func (w *serveWarm) plan(n int) []int {
	keys := w.keys()
	return w.planGrid(w.name(), n, func(int) []point {
		var pts []point
		for r := 0; r < w.repsPerPass(); r++ {
			pts = append(pts, keys...)
		}
		return pts
	})
}

// ---------------------------------------------------------------------
// gate_mix

// gateMix routes through cluster.NewRouter over two in-process shards
// with R=2. The specs are the cheapest the catalog has (2 frames, div
// 32), so routing, nested polling, hedging, replica PUTs and the gate
// LRU are the cost, not the encode. One pass is the 120-spec grid
// (family × clip × 6 CRFs), each spec submitted again 120 positions
// later; every later pass shifts the CRFs by one step, then moves to
// the next preset, so first submissions are always cold.
type gateMix struct {
	served
	router *cluster.Router
}

const gateAnchors = 6

var gatePresetOffs = []int{0, 1, -1}

func (w *gateMix) name() string         { return "gate_mix" }
func (w *gateMix) passSeconds() float64 { return 1.7 }

func (w *gateMix) setup(ctx context.Context) error {
	if err := w.prepare(); err != nil {
		return err
	}
	g, err := bootGate(ctx, w.scratch, 2, 2, w.clients)
	if err != nil {
		return err
	}
	// The shards' pool counters are process-wide obs counters, so any
	// shard's /metrics carries their sum.
	w.router, w.base, w.metricsURL, w.stop = g.router, g.front.base, g.shards[0].base, g.stop
	return nil
}

func (w *gateMix) plan(n int) []int {
	shifts := anchorShifts(gateAnchors) + 1
	if most := len(gatePresetOffs) * shifts; n > most {
		n = most
	}
	var anchors []int
	if w.short {
		anchors = []int{1}
	}
	units := w.planGrid(w.name(), n, func(p int) []point {
		return gridPoints(w.clips(), gateAnchors, anchors, p%shifts, []int{gatePresetOffs[p/shifts]})
	})
	w.repeatFrom = units[0]
	for p := range units {
		units[p] *= 2
	}
	return units
}

func (w *gateMix) layers(res *loopResult, out map[string]float64) {
	st := w.router.StatsNow()
	out["cluster.warm_route_pct"] = st.WarmRatePct
	out["cluster.hedges_launched"] = float64(st.HedgesLaunched)
	out["cluster.hedges_won"] = float64(st.HedgesWon)
	out["cluster.failovers"] = float64(st.Failovers)
	out["cluster.replicas_pushed"] = float64(st.ReplicasPushed)
	var lo, hi, total uint64
	for i, sh := range st.Shards {
		if i == 0 || sh.Routes < lo {
			lo = sh.Routes
		}
		if sh.Routes > hi {
			hi = sh.Routes
		}
		total += sh.Routes
	}
	out["cluster.shard_imbalance_pct"] = 0
	if total > 0 {
		out["cluster.shard_imbalance_pct"] = 100 * float64(hi-lo) / float64(total)
	}
	out["cluster.latency_p95_ms"] = tailOf(res.latencies())
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"vcprof/internal/cbp"
	"vcprof/internal/cluster"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/perf"
	"vcprof/internal/sched"
	"vcprof/internal/service"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/video"
)

// The cost ladder attributes host time to the simulated component from
// outside the program (the gem5 call-stack-profiling idea, PAPERS.md):
// it captures one encode's branch and access streams with its own
// sinks, replays each stream through the public bpred and cache entry
// points alone, and so splits a perf.Stat cell into codec, counting,
// predictor, cache and dispatch — then climbs the serving tower on the
// same fixed sample. Every step times a public function; nothing in
// the program is modified.

// capture is the bench-owned pair of sinks of ladder step 3. Its
// buffers are reused across cells, so after the largest cell the
// capture itself allocates nothing.
type capture struct {
	pcs   []trace.PC
	taken []bool
	addrs []uint64
	meta  []uint16 // size<<1 | store
}

func (c *capture) Branch(pc trace.PC, taken bool) {
	c.pcs = append(c.pcs, pc)
	c.taken = append(c.taken, taken)
}

func (c *capture) Access(addr uint64, size int, store bool) {
	m := uint16(size) << 1
	if store {
		m |= 1
	}
	c.addrs = append(c.addrs, addr)
	c.meta = append(c.meta, m)
}

func (c *capture) reset() {
	c.pcs, c.taken, c.addrs, c.meta = c.pcs[:0], c.taken[:0], c.addrs[:0], c.meta[:0]
}

// ladderScale is the issue's stat-cell size (3 frames, div 16). The
// ladder keeps it although stat_grid's clips were tuned smaller, so
// its split stays comparable with the pre-benchmark probe (TAGE 62%,
// cache 9%, dispatch 9% of a stat cell).
var ladderScale = harness.Scale{Frames: 3, ScaleDiv: 16}

// zooWindow caps the branches the nine-predictor zoo sees per cell.
const zooWindow = 50_000

// rung accumulates one ladder step over the sample.
type rung struct{ total time.Duration }

func (r *rung) time(f func() error) error {
	t0 := time.Now()
	err := f()
	r.total += time.Since(t0)
	return err
}

// best adds the faster of two runs of f: the steps being subtracted
// from each other are tens of milliseconds, and a GC cycle or a cold
// first call landing in one of them would read as a layer's cost.
func (r *rung) best(f func() error) error {
	var d [2]time.Duration
	for i := range d {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		d[i] = time.Since(t0)
	}
	if d[1] < d[0] {
		d[0] = d[1]
	}
	r.total += d[0]
	return nil
}

func (r *rung) ms(n int) float64 { return ms(r.total) / float64(n) }

// ladderSample is one per family on each ladder clip, at the grid's
// mid operating point.
func ladderSample(p params) []point {
	clips := ladderClips
	if p.short {
		clips = benchClips[:1]
	}
	var pts []point
	for _, clip := range clips {
		for _, fam := range encoders.Families() {
			pts = append(pts, point{fam: fam, clip: clip, crf: crfAnchor(fam, 0, 1), preset: midPreset(fam)})
		}
	}
	return pts
}

// runLadder measures every fixed-sample per-layer metric into out and
// writes the layer-tax table to w.
func runLadder(ctx context.Context, p params, out map[string]float64, w io.Writer) error {
	sample := ladderSample(p)
	n := len(sample)
	if err := pregenerate(ladderScale, benchClips); err != nil {
		return err
	}

	var plain, counted, bpredR, cacheR, stat, zooR rung
	var plainAllocs, branches, accesses, misses, l1Misses, insts, zooPredictions uint64
	cp := &capture{}
	for _, pt := range sample {
		clip, err := ladderScale.Clip(pt.clip)
		if err != nil {
			return err
		}
		enc := encoders.MustNew(pt.fam)
		opts := encoders.Options{CRF: pt.crf, Preset: pt.preset}

		// 1. Encode with a nil worker ctx: codec kernels and encoder only.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := plain.best(func() error { _, err := enc.Encode(ctx, clip, opts); return err }); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		plainAllocs += (m1.Mallocs - m0.Mallocs) / 2

		// 2. Encode with a null trace.Ctx: adds instruction counting.
		o := opts
		o.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
		if err := counted.best(func() error { _, err := enc.Encode(ctx, clip, o); return err }); err != nil {
			return err
		}

		// 3. Encode with bench-owned capturing sinks. Untimed: the
		// capture's own appends would be charged to the dispatch path.
		cp.reset()
		tc := trace.New()
		tc.AttachBranchSink(cp)
		tc.AttachMemSink(cp)
		o.NewWorkerCtx = func(int) *trace.Ctx { return tc }
		if _, err := enc.Encode(ctx, clip, o); err != nil {
			return err
		}

		// 4. Replay the branch capture through the live predictor alone.
		pred, err := bpred.NewByName("tage-8KB")
		if err != nil {
			return err
		}
		mon := bpred.NewMonitor(pred)
		_ = bpredR.time(func() error {
			for i, pc := range cp.pcs {
				mon.Branch(pc, cp.taken[i])
			}
			return nil
		})

		// 5. Replay the access capture through the hierarchy alone.
		hier, err := cache.NewXeonHierarchy()
		if err != nil {
			return err
		}
		_ = cacheR.time(func() error {
			for i, addr := range cp.addrs {
				hier.SpanAccess(addr, int(cp.meta[i]>>1), cp.meta[i]&1 != 0)
			}
			return nil
		})

		// 6. perf.Stat: the same encode with both simulators live.
		var st *perf.Counters
		if err := stat.time(func() (err error) { st, err = perf.Stat(ctx, enc, clip, opts); return err }); err != nil {
			return err
		}

		// The replays must reproduce the in-run counters exactly, or
		// the split above is not a split of this cell.
		if mon.Branches != st.Branches || mon.Mispredict != st.BranchMisses {
			return fmt.Errorf("ladder %v: replayed bpred %d/%d misses, perf.Stat %d/%d",
				pt, mon.Mispredict, mon.Branches, st.BranchMisses, st.Branches)
		}
		if l1, l2, llc := hier.MPKI(st.Instructions); l1 != st.L1DMPKI || l2 != st.L2MPKI || llc != st.LLCMPKI {
			return fmt.Errorf("ladder %v: replayed cache MPKI %v/%v/%v, perf.Stat %v/%v/%v",
				pt, l1, l2, llc, st.L1DMPKI, st.L2MPKI, st.LLCMPKI)
		}
		branches += mon.Branches
		misses += mon.Mispredict
		accesses += uint64(len(cp.addrs))
		l1Misses += hier.L1.Stats().Misses
		insts += st.Instructions

		// The same branch stream through the whole predictor zoo, as
		// the offline championship uses them.
		win := len(cp.pcs)
		if win > zooWindow {
			win = zooWindow
		}
		tr := cbp.Trace{Name: pt.clip, Instructions: uint64(win), Branches: make([]trace.MicroOp, win)}
		for i := range tr.Branches {
			tr.Branches[i] = trace.MicroOp{PC: cp.pcs[i], Class: trace.OpBranch, Taken: cp.taken[i]}
		}
		if err := zooR.time(func() error { _, err := cbp.Championship(zoo, []cbp.Trace{tr}); return err }); err != nil {
			return err
		}
		zooPredictions += uint64(win * len(zoo))
	}

	out["encoders.plain_ms"] = plain.ms(n)
	out["encoders.plain_allocs"] = float64(plainAllocs) / float64(n)
	out["encoders.counted_ms"] = counted.ms(n)
	out["trace.count_tax_ms"] = counted.ms(n) - plain.ms(n)
	out["trace.branches_per_op"] = float64(branches) / float64(n)
	out["trace.mem_accesses_per_op"] = float64(accesses) / float64(n)
	out["bpred.replay_ms"] = bpredR.ms(n)
	out["bpred.ns_per_branch"] = float64(bpredR.total.Nanoseconds()) / float64(branches)
	out["bpred.share_of_stat_pct"] = 100 * float64(bpredR.total) / float64(stat.total)
	out["bpred.miss_pct"] = 100 * float64(misses) / float64(branches)
	out["bpred.zoo_ns_per_prediction"] = float64(zooR.total.Nanoseconds()) / float64(zooPredictions)
	out["cache.replay_ms"] = cacheR.ms(n)
	out["cache.ns_per_access"] = float64(cacheR.total.Nanoseconds()) / float64(accesses)
	out["cache.share_of_stat_pct"] = 100 * float64(cacheR.total) / float64(stat.total)
	out["cache.l1d_mpki"] = float64(l1Misses) / (float64(insts) / 1000)
	out["perf.stat_ms"] = stat.ms(n)
	// What is left of a stat cell once codec, counting and both
	// simulators are accounted for: the sink fan-out in trace.Ctx.
	out["trace.sink_dispatch_ms"] = stat.ms(n) - counted.ms(n) - bpredR.ms(n) - cacheR.ms(n)

	tower, err := servingTower(ctx, p, out)
	if err != nil {
		return err
	}
	if err := microProbes(ctx, p, out); err != nil {
		return err
	}

	fmt.Fprintf(w, "layer-tax table (%d-cell sample; each storey as a multiple of the one below)\n", n)
	dispatch := counted.ms(n) + out["trace.sink_dispatch_ms"]
	writeTax(w, []storey{
		{"codec + encoder (plain Encode)", plain.ms(n)},
		{"+ trace.Ctx counting", counted.ms(n)},
		{"+ sink dispatch", dispatch},
		{"+ cache hierarchy", dispatch + cacheR.ms(n)},
		{"+ TAGE predictor = perf.Stat", stat.ms(n)},
	})
	fmt.Fprintf(w, "serving tower (%d counted specs on %s)\n", len(tower.specs), tower.specs[0].Clip)
	writeTax(w, []storey{
		{"counted Encode", tower.encode},
		{"harness.RunCell", tower.runCell},
		{"service.Execute", tower.execute},
		{fmt.Sprintf("service.Execute on a %d-worker pool", p.clients), tower.pooled},
		{"vcprofd over loopback HTTP", tower.served},
		{"vcgate over 2 shards, R=2", tower.gated},
	})
	return nil
}

type storey struct {
	name string
	ms   float64
}

func writeTax(w io.Writer, rows []storey) {
	for i, r := range rows {
		mult := "      -"
		if i > 0 && rows[i-1].ms > 0 {
			mult = fmt.Sprintf("%6.2fx", r.ms/rows[i-1].ms)
		}
		fmt.Fprintf(w, "  %-36s %10.3f ms  %s\n", r.name, r.ms, mult)
	}
}

// towerResult is the mean per-spec time at each serving storey.
type towerResult struct {
	specs                                           []service.JobSpec
	encode, runCell, execute, pooled, served, gated float64
}

// servingTower climbs from a counted encode to a gate-routed job on
// one fixed sample: the five families on the lighter ladder clip.
func servingTower(ctx context.Context, p params, out map[string]float64) (*towerResult, error) {
	t := &towerResult{}
	clip := ladderSample(p)[0].clip
	for _, pt := range ladderSample(p) {
		if pt.clip == clip {
			t.specs = append(t.specs, encodeSpec(pt, ladderScale.Frames, ladderScale.ScaleDiv, 0))
		}
	}
	n := float64(len(t.specs))
	// each times f over the sample twice, cold both times, and keeps
	// the faster pass: adjacent storeys differ by less than one GC cycle.
	each := func(before func() error, f func(spec *service.JobSpec) error) (float64, error) {
		var best time.Duration
		for rep := 0; rep < 2; rep++ {
			if err := before(); err != nil {
				return 0, err
			}
			var r rung
			for i := range t.specs {
				if err := r.time(func() error { return f(&t.specs[i]) }); err != nil {
					return 0, err
				}
			}
			if rep == 0 || r.total < best {
				best = r.total
			}
		}
		return ms(best) / n, nil
	}
	nothing := func() error { return nil }
	coldCache := func() error { harness.ResetCellCache(); return nil }
	var err error

	if t.encode, err = each(nothing, func(s *service.JobSpec) error {
		c, err := ladderScale.Clip(s.Clip)
		if err != nil {
			return err
		}
		_, err = encoders.MustNew(encoders.Family(s.Family)).Encode(ctx, c, encoders.Options{
			CRF: s.CRF, Preset: s.Preset, Threads: 1,
			NewWorkerCtx: func(int) *trace.Ctx { return trace.New() },
		})
		return err
	}); err != nil {
		return nil, err
	}

	if t.runCell, err = each(coldCache, func(s *service.JobSpec) error {
		_, _, err := harness.RunCell(ctx, ladderScale.CountedCell(encoders.Family(s.Family), s.Clip, s.CRF, s.Preset))
		return err
	}); err != nil {
		return nil, err
	}
	out["harness.runcell_overhead_us"] = 1000 * (t.runCell - t.encode)

	// The memo-cache hit path, on the cells the step above left cached.
	const hitReps = 200
	t0 := time.Now()
	for r := 0; r < hitReps; r++ {
		for i := range t.specs {
			s := &t.specs[i]
			if _, hit, err := harness.RunCell(ctx, ladderScale.CountedCell(encoders.Family(s.Family), s.Clip, s.CRF, s.Preset)); err != nil || !hit {
				return nil, fmt.Errorf("ladder: cached cell missed (err %v)", err)
			}
		}
	}
	out["harness.cellcache_hit_us"] = us(time.Since(t0)) / (hitReps * n)

	var bodies [][]byte
	if t.execute, err = each(coldCache, func(s *service.JobSpec) error {
		r, err := service.Execute(ctx, s)
		if err == nil && len(bodies) < len(t.specs) {
			bodies = append(bodies, r.Encode())
		}
		return err
	}); err != nil {
		return nil, err
	}

	// A vcprofd worker executes under the daemon's shard pool, which
	// splits a counted encode into frame/slice shards; the served
	// storeys are compared against Execute on a pool of the same size.
	pool := sched.NewPool(sched.Config{Workers: p.clients})
	pctx := sched.WithPool(ctx, pool)
	t.pooled, err = each(coldCache, func(s *service.JobSpec) error {
		_, err := service.Execute(pctx, s)
		return err
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	out["service.execute_ms"] = t.pooled

	observed, err := each(coldCache, func(s *service.JobSpec) error {
		_, err := service.ExecuteObserved(pctx, s, obs.NewSession())
		return err
	})
	pool.Close()
	if err != nil {
		return nil, err
	}
	out["obs.execute_observed_overhead_pct"] = 100 * (observed - t.pooled) / t.pooled

	hc := newClients(1, nil)[0]
	defer hc.http.CloseIdleConnections()
	// A served storey boots a fresh daemon per pass, so its store is
	// as cold as the memo cache.
	serve := func(boot func() (base string, stop func(), err error)) (float64, error) {
		var base string
		stop := func() {}
		defer func() { stop() }()
		i := 0
		return each(func() error {
			harness.ResetCellCache()
			stop()
			stop, i = func() {}, 0
			b, s, err := boot()
			if err == nil {
				base, stop = b, s
			}
			return err
		}, func(s *service.JobSpec) error {
			body, _, err := driveJob(ctx, hc, base, "ladder", s, 0, -1)
			if err == nil && string(body) != string(bodies[i]) {
				err = fmt.Errorf("ladder: %s served bytes differ from direct service.Execute", s.Key())
			}
			i++
			return err
		})
	}
	if t.served, err = serve(func() (string, func(), error) {
		d, err := bootServer(ctx, p.scratch, "vcprofd", p.clients)
		if err != nil {
			return "", nil, err
		}
		return d.base, d.stop, nil
	}); err != nil {
		return nil, err
	}
	out["service.overhead_ms"] = t.served - t.pooled

	if t.gated, err = serve(func() (string, func(), error) {
		g, err := bootGate(ctx, p.scratch, 2, 2, p.clients)
		if err != nil {
			return "", nil, err
		}
		return g.front.base, g.stop, nil
	}); err != nil {
		return nil, err
	}
	out["cluster.route_overhead_ms"] = t.gated - t.served
	return t, nil
}

// noopGraph is n independent empty tasks: what is left is the pool's
// own enqueue, claim and completion cost.
type noopGraph int

func (g noopGraph) NumTasks() int                       { return int(g) }
func (g noopGraph) Deps(int) []int                      { return nil }
func (g noopGraph) Cost(int) uint64                     { return 1 }
func (g noopGraph) Label(int) string                    { return "noop" }
func (g noopGraph) Run(context.Context, int, int) error { return nil }

// microProbes times the small public entry points no workload isolates.
func microProbes(ctx context.Context, p params, out map[string]float64) error {
	// video.Generate at the ladder's clip size.
	t0 := time.Now()
	for _, name := range benchClips {
		meta, err := video.LookupClip(name)
		if err != nil {
			return err
		}
		if _, err := video.Generate(meta, video.GenerateOptions{Frames: ladderScale.Frames, ScaleDiv: ladderScale.ScaleDiv}); err != nil {
			return err
		}
	}
	out["video.generate_ms_per_clip"] = ms(time.Since(t0)) / float64(len(benchClips))

	// sched: 10k no-op tasks through RunGraph.
	const tasks = 10_000
	pool := sched.NewPool(sched.Config{Workers: p.clients})
	t0 = time.Now()
	err := pool.RunGraph(ctx, noopGraph(tasks))
	out["sched.task_overhead_us"] = us(time.Since(t0)) / tasks
	pool.Close()
	if err != nil {
		return err
	}

	// service: content addressing, result rendering, the disk store.
	spec := encodeSpec(ladderSample(p)[0], ladderScale.Frames, ladderScale.ScaleDiv, 0)
	res, err := service.Execute(ctx, &spec)
	if err != nil {
		return err
	}
	const reps = 2000
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		_ = spec.Key()
	}
	out["service.spec_key_us"] = us(time.Since(t0)) / reps
	var body []byte
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		body = res.Encode()
	}
	out["service.result_encode_us"] = us(time.Since(t0)) / reps

	dir, err := os.MkdirTemp(p.scratch, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	const objects = 200
	keys := make([]string, objects)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	t0 = time.Now()
	for _, k := range keys {
		if err := store.Put(k, body); err != nil {
			return err
		}
	}
	out["service.store_put_us"] = us(time.Since(t0)) / objects
	t0 = time.Now()
	for _, k := range keys {
		if _, ok, err := store.Get(k); err != nil || !ok {
			return fmt.Errorf("ladder: store lost %s (err %v)", k, err)
		}
	}
	out["service.store_get_us"] = us(time.Since(t0)) / objects

	// cluster: consistent-hash owner lookup on the 2-shard ring.
	ring := cluster.NewRing([]string{"s0", "s1"}, 64)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		_ = ring.Owners(keys[i%objects], 2)
	}
	out["cluster.ring_owners_ns"] = float64(time.Since(t0).Nanoseconds()) / reps

	return liveProbe(ctx, p, out)
}

// liveProbe runs one fixed three-rung session twice, with and without
// analysis sharing (what sharing saves, in modeled instructions), and
// then encodes the unshared session's GOPs directly at the operating
// points Feed chose (what share of Feed is Encode).
func liveProbe(ctx context.Context, p params, out map[string]float64) error {
	fam := encoders.SVTAV1
	spec := live.SessionSpec{
		Clip: benchClips[0], Frames: 2 * liveGOP, Div: liveDiv,
		Family: string(fam), CRF: crfAnchor(fam, 1, liveAnchors), Preset: fastPreset(fam, 0),
		GOP: liveGOP, FPS: liveFPS,
		Rungs: []int{crfAnchor(fam, 2, liveAnchors), crfAnchor(fam, 3, liveAnchors)},
	}
	feed := func(share bool) (live.Stats, []live.GOPResult, time.Duration, error) {
		s := spec
		s.Share = share
		sess, err := live.New(s, live.Config{})
		if err != nil {
			return live.Stats{}, nil, 0, err
		}
		t0 := time.Now()
		gops, err := sess.Feed(ctx, s.Frames, true)
		return sess.Stats(), gops, time.Since(t0), err
	}
	shared, _, _, err := feed(true)
	if err != nil {
		return err
	}
	solo, gops, feedTime, err := feed(false)
	if err != nil {
		return err
	}
	out["live.share_saved_inst_pct"] = 100 * (float64(solo.Insts) - float64(shared.Insts)) / float64(solo.Insts)

	meta, err := video.LookupClip(spec.Clip)
	if err != nil {
		return err
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: spec.Frames, ScaleDiv: spec.Div})
	if err != nil {
		return err
	}
	enc := encoders.MustNew(fam)
	t0 := time.Now()
	for _, g := range gops {
		// g.Preset is the preset the degrade policy settled on.
		sub := &video.Clip{Meta: clip.Meta, Frames: clip.Frames[g.Start : g.Start+g.Frames]}
		for _, crf := range append([]int{g.CRF}, spec.Rungs...) {
			if _, err := enc.Encode(ctx, sub, encoders.Options{
				CRF: crf, Preset: g.Preset, Threads: 1, KeepBitstream: true, AnalyzeIntra: true,
				NewWorkerCtx: func(int) *trace.Ctx { return trace.New() },
			}); err != nil {
				return err
			}
		}
	}
	out["live.encode_share_pct"] = 100 * float64(time.Since(t0)) / float64(feedTime)
	return nil
}

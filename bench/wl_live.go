package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/live"
	"vcprof/internal/sched"
)

// liveLadder feeds in-process live sessions GOP by GOP on one shared
// sched.Pool: two extra ladder rungs with analysis sharing, a preset
// switch on every 4th session. A unit is one session; an op is one GOP
// across all rungs. The 60 sessions (family × 3 clips × 4 base CRFs)
// are dealt into six passes of 10 — every family twice in each — so a
// cycle is 240 ops; later cycles shift every CRF a step.
type liveLadder struct {
	params
	pool     *sched.Pool
	specs    [][]live.SessionSpec
	sessions [][]*live.Session

	feed    atomic.Int64 // ns inside Session.Feed
	shared  atomic.Int64
	misses  atomic.Int64
	degrade atomic.Int64
}

const (
	liveGOP      = 8
	liveGOPs     = 4
	liveFPS      = 30
	liveDiv      = 12 // tuned in 8–16 to fit the time target
	liveAnchors  = 4
	liveSwitchAt = 2
	liveCycle    = 6 // passes per 60-session grid
)

func (w *liveLadder) name() string         { return "live_ladder" }
func (w *liveLadder) passSeconds() float64 { return 1.7 }

func (w *liveLadder) gops() int {
	if w.short {
		return 2
	}
	return liveGOPs
}

func (w *liveLadder) liveClips() []string {
	if w.short {
		return benchClips[:1]
	}
	return benchClips[:3]
}

// cycleLen is how many passes the session grid is dealt into.
func (w *liveLadder) cycleLen() int {
	if w.short {
		return liveAnchors // 20 sessions, 5 per pass
	}
	return liveCycle
}

// gridSpecs builds one cycle's sessions in canonical order: rung 0
// starts at each of the CRF anchors in turn, the two extra rungs take
// the next two.
func (w *liveLadder) gridSpecs(shift int) []live.SessionSpec {
	var out []live.SessionSpec
	for _, fam := range encoders.Families() {
		for _, clip := range w.liveClips() {
			for base := 0; base < liveAnchors; base++ {
				crf := func(k int) int { return crfAnchor(fam, (base+k)%liveAnchors, liveAnchors) + shift }
				s := live.SessionSpec{
					Clip: clip, Frames: liveGOP * w.gops(), Div: liveDiv,
					Family: string(fam), CRF: crf(0), Preset: fastPreset(fam, 0),
					GOP: liveGOP, FPS: liveFPS,
					Rungs: []int{crf(1), crf(2)}, Share: true,
				}
				if len(out)%4 == 3 && w.gops() > liveSwitchAt {
					s.Switches = []live.Switch{{AtGOP: liveSwitchAt, Family: s.Family, CRF: s.CRF, Preset: fastPreset(fam, 1)}}
				}
				s.Normalize()
				out = append(out, s)
			}
		}
	}
	return out
}

// setup creates the pool and every session of the planned passes up
// front: live.New generates the session's clip, and clip generation
// is set-up cost, not GOP latency.
func (w *liveLadder) setup(context.Context) error {
	w.pool = sched.NewPool(sched.Config{Workers: w.clients})
	w.sessions = nil
	for _, v := range []*atomic.Int64{&w.feed, &w.shared, &w.misses, &w.degrade} {
		v.Store(0)
	}
	return w.open()
}

func (w *liveLadder) teardown() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

func (w *liveLadder) warmup(ctx context.Context) error {
	s, err := live.New(live.SessionSpec{
		Clip: w.liveClips()[0], Frames: liveGOP, Div: liveDiv,
		Family: string(encoders.X264), CRF: 0, Preset: fastPreset(encoders.X264, 0),
		GOP: liveGOP, FPS: liveFPS,
	}, live.Config{Pool: w.pool})
	if err != nil {
		return err
	}
	_, err = s.Feed(ctx, liveGOP, true)
	return err
}

func (w *liveLadder) plan(n int) []int {
	cycle := w.cycleLen()
	if most := cycle * (anchorShifts(liveAnchors) + 1); n > most {
		n = most
	}
	w.specs = make([][]live.SessionSpec, n)
	units := make([]int, n)
	var dealt [][]live.SessionSpec
	for p := range w.specs {
		if p%cycle == 0 {
			dealt = deal(w.gridSpecs(p/cycle), func(s live.SessionSpec) string { return s.Family }, cycle)
		}
		w.specs[p] = shuffled(mixRNG(w.seed, w.name(), p), dealt[p%cycle])
		units[p] = len(w.specs[p])
	}
	return units
}

// open creates the sessions of the planned passes.
func (w *liveLadder) open() error {
	w.sessions = make([][]*live.Session, len(w.specs))
	for p, specs := range w.specs {
		for _, spec := range specs {
			s, err := live.New(spec, live.Config{Pool: w.pool})
			if err != nil {
				return err
			}
			w.sessions[p] = append(w.sessions[p], s)
		}
	}
	return nil
}

func (w *liveLadder) enterPass(int) {}

func (w *liveLadder) run(ctx context.Context, c *client, pass, unit int) []op {
	s := w.sessions[pass][unit]
	w.sessions[pass][unit] = nil // a fed session's clip is garbage
	var ops []op
	for g := 0; g < w.gops(); g++ {
		id := (pass<<16|unit)<<4 | g
		root := c.begin("op", id, -1)
		h := c.begin("live.Feed", id, root)
		t0 := time.Now()
		res, err := s.Feed(ctx, liveGOP, g == w.gops()-1)
		lat := time.Since(t0)
		c.end(h)
		c.end(root)
		w.feed.Add(int64(lat))
		if err == nil && len(res) != 1 {
			err = fmt.Errorf("session %d/%d GOP %d: Feed returned %d GOPs", pass, unit, g, len(res))
		}
		if err != nil {
			ops = append(ops, op{latency: lat, err: err})
			continue
		}
		r := res[0]
		if r.Misses != 0 || r.Dropped {
			err = fmt.Errorf("session %d/%d GOP %d: %d deadline misses, dropped=%v", pass, unit, g, r.Misses, r.Dropped)
		}
		ops = append(ops, op{
			latency: lat, insts: r.Insts, err: err,
			digest: sha256.Sum256([]byte(fmt.Sprintf("%s misses=%d insts=%d bytes=%d", r.Digest, r.Misses, r.Insts, r.Bytes))),
		})
	}
	st := s.Stats()
	w.shared.Add(int64(st.SharedGOPs))
	w.misses.Add(int64(st.Misses))
	w.degrade.Add(int64(st.DegradeTotal))
	return ops
}

func (w *liveLadder) verify(context.Context) error {
	if m := w.misses.Load(); m != 0 {
		return fmt.Errorf("live_ladder: %d deadline misses, want 0", m)
	}
	return nil
}

func (w *liveLadder) layers(res *loopResult, out map[string]float64) {
	n, _ := res.counts()
	if n > 0 {
		out["live.feed_ms_per_gop"] = ms(time.Duration(w.feed.Load())) / float64(n)
	}
	out["live.shared_gops"] = float64(w.shared.Load())
	out["live.deadline_misses"] = float64(w.misses.Load())
	out["live.degrade_steps"] = float64(w.degrade.Load())
	st := w.pool.Stats()
	schedRows(out, float64(st.Pops), float64(st.Steals), float64(st.Parks))
}

package live

import (
	"bytes"
	"context"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/video"
)

// baseSpec is the calibrated reference session: at 30 fps the div-8
// encode is far faster than real time, so a correct engine reports zero
// deadline misses (the live-smoke contract).
func baseSpec() SessionSpec {
	return SessionSpec{
		Clip: "game1", Frames: 16, Div: 8,
		Family: "svt-av1", CRF: 28, Preset: 8,
		GOP: 8, FPS: 30, Deadline: 16,
		Rungs: []int{36, 44, 52}, Share: true,
	}
}

func runSession(t *testing.T, spec SessionSpec, cfg Config, batch int) (*Session, []GOPResult) {
	t.Helper()
	s, err := New(spec, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if batch <= 0 {
		batch = spec.Frames
	}
	var gops []GOPResult
	for fed := 0; fed < spec.Frames; fed += batch {
		n := batch
		eos := fed+n >= spec.Frames
		gs, err := s.Feed(context.Background(), n, eos)
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		gops = append(gops, gs...)
	}
	return s, gops
}

// foldResults folds GOPResult digests the way the engine does — the
// cross-instance equivalent of Session.Digest for resumed sessions.
func foldResults(t *testing.T, gops []GOPResult) string {
	t.Helper()
	var ds [][32]byte
	for _, g := range gops {
		b, err := hex.DecodeString(g.Digest)
		if err != nil || len(b) != 32 {
			t.Fatalf("bad GOP digest %q: %v", g.Digest, err)
		}
		var d [32]byte
		copy(d[:], b)
		ds = append(ds, d)
	}
	return obs.FoldDigest(ds)
}

// TestScheduleInvariance is the live half of the repo's scheduling
// contract: the session digest must not depend on pool presence,
// worker count, steal seed, or feed batching.
func TestScheduleInvariance(t *testing.T) {
	spec := baseSpec()
	ref, _ := runSession(t, spec, Config{}, 0)
	want := ref.Digest()
	if st := ref.Stats(); st.Misses != 0 || st.Dropped != 0 {
		t.Fatalf("calibrated spec missed deadlines: %+v", st)
	}

	type env struct {
		name    string
		workers int
		seed    uint64
		batch   int
	}
	for _, e := range []env{
		{"pool-j1", 1, 1, 0},
		{"pool-j8", 8, 1, 0},
		{"pool-j8-seed", 8, 0xdecade, 0},
		{"pool-j8-feed1", 8, 7, 1},
		{"nopool-feed3", 0, 0, 3},
	} {
		t.Run(e.name, func(t *testing.T) {
			cfg := Config{}
			if e.workers > 0 {
				p := sched.NewPool(sched.Config{Workers: e.workers, Seed: e.seed})
				defer p.Close()
				cfg.Pool = p
			}
			s, _ := runSession(t, spec, cfg, e.batch)
			if got := s.Digest(); got != want {
				t.Fatalf("digest diverged: got %s want %s", got, want)
			}
			if st := s.Stats(); st.Misses != 0 {
				t.Fatalf("misses diverged: %+v", st)
			}
		})
	}
}

// TestLadderShareSaving pins the tentpole's headline number: sharing
// the open-loop analysis across 4 rungs must cut instructions by at
// least 20% while leaving every output byte identical.
func TestLadderShareSaving(t *testing.T) {
	spec := baseSpec()
	shared, _ := runSession(t, spec, Config{}, 0)
	spec2 := baseSpec()
	spec2.Share = false
	indep, _ := runSession(t, spec2, Config{}, 0)

	if shared.Digest() != indep.Digest() {
		t.Fatalf("ladder sharing changed output bytes: %s vs %s", shared.Digest(), indep.Digest())
	}
	si, ii := shared.Stats().Insts, indep.Stats().Insts
	saving := 1 - float64(si)/float64(ii)
	t.Logf("ladder share: indep=%d shared=%d saving=%.1f%%", ii, si, 100*saving)
	if saving < 0.20 {
		t.Fatalf("ladder share saving %.1f%% below the 20%% floor", 100*saving)
	}
	if shared.Stats().SharedGOPs == 0 {
		t.Fatalf("no rung encodes reused the analysis cache")
	}
}

// TestSwitchSplice checks mid-stream switching: the operating point
// changes exactly at the scripted GOP boundary, and every rung of every
// GOP — across the switch — decodes standalone (the splice guarantee).
func TestSwitchSplice(t *testing.T) {
	spec := baseSpec()
	spec.Rungs = []int{40}
	spec.Switches = []Switch{{AtGOP: 1, Family: "x264", CRF: 30, Preset: 2}}
	s, gops := runSession(t, spec, Config{}, 0)
	if len(gops) != 2 {
		t.Fatalf("got %d GOPs, want 2", len(gops))
	}
	if gops[0].Family != "svt-av1" || gops[0].Preset != 8 || gops[0].CRF != 28 {
		t.Fatalf("GOP 0 at wrong point: %+v", gops[0])
	}
	if gops[1].Family != "x264" || gops[1].Preset != 2 || gops[1].CRF != 30 {
		t.Fatalf("GOP 1 did not switch: %+v", gops[1])
	}
	for _, g := range gops {
		if len(g.Bitstreams) != 2 {
			t.Fatalf("GOP %d has %d rung bitstreams, want 2", g.Index, len(g.Bitstreams))
		}
		for ri, bs := range g.Bitstreams {
			frames, err := encoders.DecodeBitstream(bs)
			if err != nil {
				t.Fatalf("GOP %d rung %d bitstream not standalone-decodable: %v", g.Index, ri, err)
			}
			if len(frames) != g.Frames {
				t.Fatalf("GOP %d rung %d decoded %d frames, want %d", g.Index, ri, len(frames), g.Frames)
			}
		}
	}
	if st := s.Stats(); st.GOPs != 2 || st.Encoded != spec.Frames {
		t.Fatalf("stats off after switch: %+v", st)
	}
}

// TestResumeEquivalence is the failover contract: splitting a session
// at a GOP boundary via ResumeToken and continuing elsewhere yields the
// same GOP digests, misses, and timeline as the session that never
// moved.
func TestResumeEquivalence(t *testing.T) {
	spec := baseSpec()
	spec.Switches = []Switch{{AtGOP: 1, Family: "svt-av1", CRF: 30, Preset: 7}}
	straight, sg := runSession(t, spec, Config{}, 0)

	a, err := New(spec, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ga, err := a.Feed(context.Background(), 8, false)
	if err != nil {
		t.Fatalf("Feed A: %v", err)
	}
	tok := a.ResumeToken()
	if tok.StartFrame != 8 || tok.GOP != 1 {
		t.Fatalf("unexpected token: %+v", tok)
	}
	b, err := Resume(spec, Config{}, tok)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	gb, err := b.Feed(context.Background(), 8, true)
	if err != nil {
		t.Fatalf("Feed B: %v", err)
	}
	combined := foldResults(t, append(append([]GOPResult{}, ga...), gb...))
	if want := foldResults(t, sg); combined != want {
		t.Fatalf("resumed digests diverge: %s vs %s", combined, want)
	}
	if straight.Digest() != foldResults(t, sg) {
		t.Fatalf("Session.Digest disagrees with folded results")
	}
	ss, bs := straight.Stats(), b.Stats()
	if ss.Misses != bs.Misses || ss.FinishTick != bs.FinishTick || ss.Insts != bs.Insts {
		t.Fatalf("resumed timeline diverged: straight=%+v resumed=%+v", ss, bs)
	}
}

// TestDegradeShedsEffort: sustained overload at a slow preset sheds
// effort toward the family's fastest preset instead of dropping.
func TestDegradeShedsEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("overload calibration is expensive")
	}
	spec := SessionSpec{
		Clip: "game1", Frames: 32, Div: 8,
		Family: "svt-av1", CRF: 28, Preset: 4,
		GOP: 8, FPS: 240, Deadline: 4,
	}
	s, gops := runSession(t, spec, Config{}, 0)
	st := s.Stats()
	if st.DegradeTotal == 0 {
		t.Fatalf("overloaded session never degraded: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("degrade headroom remained but frames dropped: %+v", st)
	}
	shed := false
	for _, g := range gops {
		if g.Preset > 4 {
			shed = true
		}
	}
	if !shed {
		t.Fatalf("no GOP encoded at a shed preset: %+v", gops)
	}
}

// TestDropAtEffortFloor: overload with zero shed headroom (x264 preset
// 0 is already the fastest) must drop whole GOPs once the backlog
// exceeds the latency budget — and recover once the drop catches the
// timeline up.
func TestDropAtEffortFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("overload calibration is expensive")
	}
	spec := SessionSpec{
		Clip: "game1", Frames: 24, Div: 2,
		Family: "x264", CRF: 30, Preset: 0,
		GOP: 4, FPS: 240, Deadline: 5,
		Rungs: []int{38, 46},
	}
	s, gops := runSession(t, spec, Config{}, 0)
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatalf("overloaded floor session never dropped: %+v", st)
	}
	if st.DegradeTotal != 0 {
		t.Fatalf("preset 0 has no shed headroom, yet degraded: %+v", st)
	}
	var dropped, after int
	for _, g := range gops {
		if g.Dropped {
			dropped++
		} else if dropped > 0 {
			after++
		}
	}
	if dropped == 0 || after == 0 {
		t.Fatalf("want drop followed by recovery, got gops %+v", gops)
	}
}

// TestSpecValidation covers the representative rejection paths.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SessionSpec)
	}{
		{"unknown clip", func(s *SessionSpec) { s.Clip = "nope" }},
		{"bad family", func(s *SessionSpec) { s.Family = "vp9000" }},
		{"preset out of range", func(s *SessionSpec) { s.Preset = 99 }},
		{"duplicate rung", func(s *SessionSpec) { s.Rungs = []int{36, 36} }},
		{"rung equals base", func(s *SessionSpec) { s.Rungs = []int{28} }},
		{"switch at gop 0", func(s *SessionSpec) {
			s.Switches = []Switch{{AtGOP: 0, Family: "x264", CRF: 30, Preset: 2}}
		}},
		{"switches out of order", func(s *SessionSpec) {
			s.Switches = []Switch{
				{AtGOP: 2, Family: "x264", CRF: 30, Preset: 2},
				{AtGOP: 1, Family: "x264", CRF: 32, Preset: 2},
			}
		}},
		{"rung invalid for switch family", func(s *SessionSpec) {
			s.Rungs = []int{60}
			s.Switches = []Switch{{AtGOP: 1, Family: "x264", CRF: 30, Preset: 2}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := baseSpec()
			c.mut(&spec)
			if _, err := New(spec, Config{}); err == nil {
				t.Fatalf("spec accepted: %+v", spec)
			}
		})
	}
	if _, err := Resume(baseSpec(), Config{}, ResumeToken{StartFrame: 3, GOP: 0}); err == nil {
		t.Fatalf("unaligned resume token accepted")
	}
	if _, err := Resume(baseSpec(), Config{}, ResumeToken{StartFrame: 8, GOP: 2}); err == nil {
		t.Fatalf("inconsistent resume token accepted")
	}
}

// TestResumeRejectsNegativeToken pins the token's range check: a
// negative shed level or counter is refused at the door (a negative
// degrade would otherwise walk the preset toward and past the slow end
// of the family's range), while a shed level beyond what the operating
// point allows is legitimate — a scripted switch can land on a preset
// with less headroom — and simply clamps at the fast end.
func TestResumeRejectsNegativeToken(t *testing.T) {
	aligned := ResumeToken{StartFrame: 8, GOP: 1}
	cases := []struct {
		name string
		mut  func(*ResumeToken)
		ok   bool
	}{
		{"clean", func(*ResumeToken) {}, true},
		{"degrade beyond the fast end", func(k *ResumeToken) { k.Degrade, k.DegradeTotal = 100, 100 }, true},
		{"degrade", func(k *ResumeToken) { k.Degrade = -3 }, false},
		{"degrade_total", func(k *ResumeToken) { k.DegradeTotal = -1 }, false},
		{"misses", func(k *ResumeToken) { k.Misses = -1 }, false},
		{"dropped", func(k *ResumeToken) { k.Dropped = -1 }, false},
		{"shared_gops", func(k *ResumeToken) { k.SharedGOPs = -1 }, false},
	}
	for _, c := range cases {
		tok := aligned
		c.mut(&tok)
		s, err := Resume(baseSpec(), Config{}, tok)
		if (err == nil) != c.ok {
			t.Errorf("%s: Resume error = %v, want accepted = %v", c.name, err, c.ok)
		}
		if err == nil && c.ok {
			if _, err := s.Feed(context.Background(), 8, true); err != nil {
				t.Errorf("%s: feed after resume: %v", c.name, err)
			}
		}
	}
}

// TestResumeChecksTokenBeforeTheClip: a forged token is refused before
// the clip it names is generated — a refusal costs no generation.
func TestResumeChecksTokenBeforeTheClip(t *testing.T) {
	video.ResetClipMemo()
	defer video.ResetClipMemo()
	spec := baseSpec()
	spec.Frames = 24 // a clip no other test asks for
	for _, tok := range []ResumeToken{{StartFrame: 3}, {StartFrame: 8, GOP: 2}, {StartFrame: 8, GOP: 1, Misses: -1}} {
		if _, err := Resume(spec, Config{}, tok); err == nil {
			t.Errorf("token %+v accepted", tok)
		}
	}
	if st := video.ClipMemoStats(); st.Misses != 0 {
		t.Errorf("refused tokens caused %d clip generations", st.Misses)
	}
	if _, err := Resume(spec, Config{}, ResumeToken{StartFrame: 8, GOP: 1}); err != nil {
		t.Fatal(err)
	}
	if st := video.ClipMemoStats(); st.Misses != 1 {
		t.Errorf("an accepted token caused %d clip generations, want 1", st.Misses)
	}
}

// TestSessionsShareOneReadOnlyClip: sessions on one (clip, frames,
// div) hold the same generated clip, and running them — ladder rungs,
// shared GOPs and a family switch, concurrently on one pool, which is
// what the race detector watches — leaves every pixel as generated.
func TestSessionsShareOneReadOnlyClip(t *testing.T) {
	video.ResetClipMemo()
	defer video.ResetClipMemo()
	spec := baseSpec()
	spec.Rungs = []int{36, 44}
	spec.Switches = []Switch{{AtGOP: 1, Family: "x264", CRF: 30, Preset: 8}}
	pool := sched.NewPool(sched.Config{Workers: 4, Seed: 1})
	defer pool.Close()
	sessions := make([]*Session, 4)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(spec, Config{Pool: pool})
			if err != nil {
				t.Errorf("New: %v", err)
				return
			}
			sessions[i] = s
			if _, err := s.Feed(context.Background(), spec.Frames, true); err != nil {
				t.Errorf("Feed: %v", err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := video.ClipMemoStats(); st.Misses != 1 {
		t.Errorf("%d sessions generated the clip %d times", len(sessions), st.Misses)
	}
	meta, err := video.LookupClip(spec.Clip)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := video.Generate(meta, video.GenerateOptions{Frames: spec.Frames, ScaleDiv: spec.Div})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.clip != sessions[0].clip {
			t.Fatal("sessions on one spec hold different clips")
		}
	}
	for i, f := range sessions[0].clip.Frames {
		g := fresh.Frames[i]
		if !bytes.Equal(f.Y.Pix, g.Y.Pix) || !bytes.Equal(f.U.Pix, g.U.Pix) || !bytes.Equal(f.V.Pix, g.V.Pix) || f.Index != g.Index {
			t.Fatalf("frame %d of the shared clip was written to", i)
		}
	}
}

// TestFeedHammer drives concurrent sessions on one shared pool — with a
// mid-flight cancellation — under the race detector, then checks the
// pool winds down without leaking goroutines and that a cancelled feed
// leaves the session consistent (it can be re-fed to the same digest).
func TestFeedHammer(t *testing.T) {
	spec := baseSpec()
	spec.Frames = 8
	spec.GOP = 4
	spec.Rungs = []int{44}
	ref, _ := runSession(t, spec, Config{}, 0)
	want := ref.Digest()

	before := runtime.NumGoroutine()
	pool := sched.NewPool(sched.Config{Workers: 4, Seed: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(spec, Config{Pool: pool})
			if err != nil {
				t.Errorf("New: %v", err)
				return
			}
			// First GOP under a cancelled context must fail cleanly...
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := s.Feed(cctx, 4, false); err == nil {
				t.Errorf("cancelled feed succeeded")
				return
			}
			// ...and the session must still run to the reference digest.
			for f := 0; f < spec.Frames; f += 2 {
				if _, err := s.Feed(context.Background(), 2, f+2 >= spec.Frames); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
			}
			if got := s.Digest(); got != want {
				t.Errorf("hammer digest diverged: got %s want %s", got, want)
			}
		}()
	}
	wg.Wait()
	pool.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

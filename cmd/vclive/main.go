// Command vclive is the deterministic live-session load generator and
// study driver for the internal/live engine. A seeded PRNG draws a
// fixed session mix over the clip catalog × encoder families × ladder
// shapes × mid-stream preset switches; -c workers each drive one
// session at a time — create, feed the arrival watermark in batches,
// eos — either in-process (-addr empty) or over vcprofd's session
// protocol, to a daemon or a gate. Every pass with the same seed and
// count generates byte-identical specs, and the tool folds every
// session digest into one order-independent digest: the in-process
// run, a single daemon, and a gate with a shard dying mid-run must all
// print the same line or the serving layer broke determinism.
//
// Usage:
//
//	vclive -n 8 -c 4                      # in-process engine
//	vclive -addr 127.0.0.1:8791 -n 8 -c 4 # a vcprofd daemon or gate
//	vclive -ladder-compare                # ABR ladder sharing saving
//	vclive -study                         # live-vs-VOD top-down table
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/service"
	"vcprof/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vclive:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "", "vcprofd daemon or gate address (host:port); empty runs the engine in-process")
		n        = flag.Int("n", 8, "total sessions to complete")
		conc     = flag.Int("c", 4, "closed-loop concurrency (in-flight sessions)")
		seed     = flag.Uint64("seed", 1, "session-mix seed")
		frames   = flag.Int("frames", 16, "frames per session")
		gop      = flag.Int("gop", 8, "GOP size (keyframe cadence and splice granularity)")
		fps      = flag.Int("fps", 30, "feed rate (frames per second on the virtual clock)")
		div      = flag.Int("div", 8, "resolution divisor per session")
		feed     = flag.Int("feed", 8, "frames per feed batch (arrival watermark step)")
		swEvery  = flag.Int("switch-every", 4, "give every k-th session a mid-stream preset switch (0 = off)")
		bench    = flag.Bool("bench", false, "print the run as Go-benchmark-format lines")
		ladder   = flag.Bool("ladder-compare", false, "run the ABR ladder-sharing comparison (share on vs off) and exit")
		study    = flag.Bool("study", false, "run the live-vs-VOD top-down study and exit")
		studyFam = flag.String("study-family", "svt-av1", "family for -study / -ladder-compare")
	)
	flag.Parse()
	if *ladder || *study {
		if _, err := encoders.New(encoders.Family(*studyFam)); err != nil {
			return err
		}
	}
	if *ladder {
		return runLadderCompare(*studyFam, *frames, *gop, *fps, *div, *bench)
	}
	if *study {
		return runStudy(*studyFam, *frames, *gop, *fps, *div)
	}
	if *n < 1 || *conc < 1 || *feed < 1 {
		return fmt.Errorf("-n, -c and -feed must be positive")
	}

	specs := buildMix(*seed, *n, *frames, *gop, *fps, *div, *swEvery)

	var drive func(i int) (sessionOutcome, error)
	if *addr == "" {
		// One shared work-stealing pool for the whole run: the
		// schedule-invariance contract says its worker count and seed
		// cannot change a byte of any digest.
		pool := sched.NewPool(sched.Config{Workers: *conc, Seed: *seed})
		defer pool.Close()
		drive = func(i int) (sessionOutcome, error) {
			return driveLocal(&specs[i], live.Config{Pool: pool}, *feed)
		}
	} else {
		base := *addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		// ^C ends every drive in flight, and each gives its session's
		// slot back to the server on the way out (driveRemote).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		daemon := service.Client{Base: base, HTTP: &http.Client{Timeout: 5 * time.Minute}}
		drive = func(i int) (sessionOutcome, error) {
			return driveRemote(ctx, daemon, &specs[i], *feed)
		}
	}

	var (
		next     atomic.Int64
		failures atomic.Int64
		mu       sync.Mutex
		firstErr error
		digests  = make([][32]byte, *n)
		outcomes = make([]sessionOutcome, *n)
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				out, err := drive(i)
				if err != nil {
					failures.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("session %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				outcomes[i] = out
				// The fold slot is the session index, so the combined
				// digest is independent of worker interleaving.
				digests[i] = sha256.Sum256([]byte(out.digest))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if f := failures.Load(); f > 0 {
		return fmt.Errorf("%d/%d sessions failed; first: %w", f, *n, firstErr)
	}

	var misses, droppedFrames, gops, degrades int
	for _, out := range outcomes {
		misses += out.stats.Misses
		droppedFrames += out.stats.Dropped
		gops += out.stats.GOPs
		degrades += out.stats.DegradeTotal
	}
	fmt.Printf("vclive: %d sessions ok in %.2fs (%.1f sessions/s, c=%d)\n",
		*n, wall.Seconds(), float64(*n)/wall.Seconds(), *conc)
	fmt.Printf("gops %d, deadline-misses %d, dropped-frames %d, degrade-steps %d\n",
		gops, misses, droppedFrames, degrades)
	fmt.Printf("digest %s\n", obs.FoldDigest(digests))

	if *bench {
		fmt.Printf("BenchmarkLiveSession %d %d ns/op\n", *n, wall.Nanoseconds()/int64(*n))
		if gops > 0 {
			fmt.Printf("BenchmarkLiveGOP %d %d ns/op\n", gops, wall.Nanoseconds()/int64(gops))
		}
	}
	return nil
}

// sessionOutcome is what one driven session contributes to the run
// report: its folded digest and final stats.
type sessionOutcome struct {
	digest string
	stats  live.Stats
}

// buildMix derives the session list from the seed: a pure function, so
// every pass offers the same sessions. Every flag-gated feature draws
// its randomness unconditionally, so toggling a flag never shifts the
// stream for the sessions it does not touch.
func buildMix(seed uint64, n, frames, gop, fps, div, swEvery int) []live.SessionSpec {
	clips := video.Vbench()
	fams := encoders.Families()
	rng := splitmix{state: seed}
	specs := make([]live.SessionSpec, n)
	for i := range specs {
		fam := fams[int(rng.next()%uint64(len(fams)))]
		clip := clips[int(rng.next()%uint64(len(clips)))].Name
		enc := encoders.MustNew(fam)
		lo, hi := enc.CRFRange()
		// Four ladder anchor points spread across the family's CRF
		// range; one is the base rung, up to two more ride along.
		points := [4]int{}
		for k := range points {
			points[k] = lo + k*(hi-lo)/4
		}
		base := int(rng.next() % 4)
		nRungs := int(rng.next() % 3) // 0..2 extra rungs
		var rungs []int
		for k := 1; k <= nRungs; k++ {
			rungs = append(rungs, points[(base+k)%4])
		}
		plo, phi, reversed := enc.PresetRange()
		// Live feeds run near the family's fast end: the calibrated mix
		// must meet the feed rate with zero deadline misses, which the
		// slow half of the preset range cannot.
		quarter := (phi - plo) / 4
		var preset int
		if reversed {
			preset = plo + quarter
		} else {
			preset = phi - quarter
		}
		specs[i] = live.SessionSpec{
			Clip: clip, Frames: frames, Div: div,
			Family: string(fam), CRF: points[base], Preset: preset,
			GOP: gop, FPS: fps,
			Rungs: rungs, Share: len(rungs) > 0,
		}
		// The switch draw always happens so -switch-every never shifts
		// the mix; every k-th session actually takes it — a same-family
		// preset step at a mid-stream GOP boundary, kept in the fast
		// half of the range for the same deadline reason.
		swGOP := 1 + int(rng.next()%2)
		swOff := int(rng.next() % uint64(quarter+1))
		var swPreset int
		if reversed {
			swPreset = plo + swOff
		} else {
			swPreset = phi - swOff
		}
		if swEvery > 0 && (i+1)%swEvery == 0 {
			specs[i].Switches = []live.Switch{{
				AtGOP: swGOP, Family: string(fam), CRF: points[base], Preset: swPreset,
			}}
		}
		specs[i].Normalize()
	}
	return specs
}

// driveLocal runs one session in-process: the baseline every remote
// topology must match byte for byte.
func driveLocal(spec *live.SessionSpec, cfg live.Config, batch int) (sessionOutcome, error) {
	s, err := live.New(*spec, cfg)
	if err != nil {
		return sessionOutcome{}, err
	}
	ctx := context.Background()
	for fed := 0; fed < spec.Frames; {
		fed += batch
		if fed >= spec.Frames {
			if _, err := s.Feed(ctx, batch, true); err != nil {
				return sessionOutcome{}, err
			}
			break
		}
		if _, err := s.Feed(ctx, batch, false); err != nil {
			return sessionOutcome{}, err
		}
	}
	return sessionOutcome{digest: s.Digest(), stats: s.Stats()}, nil
}

// driveRemote drives one session over the HTTP protocol: create, then
// absolute arrival watermarks in batches, eos on the last. The digests
// come back per GOP and fold client-side. A session it created but did
// not finish is DELETEd: the server frees a slot only at EOS or DELETE.
func driveRemote(ctx context.Context, daemon service.Client, spec *live.SessionSpec, batch int) (_ sessionOutcome, err error) {
	created, err := daemon.CreateSession(ctx, service.SessionCreateReq{Spec: *spec}, "")
	if err != nil {
		return sessionOutcome{}, fmt.Errorf("create: %w", err)
	}
	defer func() {
		if err != nil {
			// Best effort: a server that is gone is not an error.
			daemon.DeleteSession(ctx, created.ID)
		}
	}()
	var ds [][32]byte
	var last service.SessionFeedResp
	for fed := 0; ; {
		fed += batch
		eos := fed >= spec.Frames
		if eos {
			fed = spec.Frames
		}
		last, err = daemon.FeedSession(ctx, created.ID, service.SessionFeedReq{Fed: fed, EOS: eos}, "")
		if err != nil {
			return sessionOutcome{}, fmt.Errorf("feed %d: %w", fed, err)
		}
		for _, g := range last.GOPs {
			raw, err := hex.DecodeString(g.Digest)
			if err != nil || len(raw) != 32 {
				return sessionOutcome{}, fmt.Errorf("bad wire digest %q", g.Digest)
			}
			var d [32]byte
			copy(d[:], raw)
			ds = append(ds, d)
		}
		if eos {
			break
		}
	}
	if !last.Stats.Done {
		return sessionOutcome{}, fmt.Errorf("session not done after eos: %+v", last.Stats)
	}
	return sessionOutcome{digest: obs.FoldDigest(ds), stats: last.Stats}, nil
}

// ladderSpec is the fixed operating point the comparison and the study
// run: a 4-rung ladder at the family's default-ish point, heavy enough
// that sharing has real work to elide.
func ladderSpec(family string, frames, gop, fps, div int) live.SessionSpec {
	enc := encoders.MustNew(encoders.Family(family))
	lo, hi := enc.CRFRange()
	// Mid-range rungs one step apart — the quality band real ABR
	// ladders occupy, where the shared motion/intra analysis is the
	// dominant per-rung cost (extreme-CRF rungs dilute the saving).
	base := lo + 4*(hi-lo)/9
	step := (hi - lo) / 8
	plo, phi, reversed := enc.PresetRange()
	fastest := phi
	if reversed {
		fastest = plo
	}
	return live.SessionSpec{
		Clip: "game1", Frames: frames, Div: div,
		Family: family, CRF: base, Preset: fastest,
		GOP: gop, FPS: fps,
		Rungs: []int{base + step, base + 2*step, base + 3*step},
		Share: true,
	}
}

// runLadderCompare encodes the same 4-rung session with analysis
// sharing on and off and reports the instruction saving. The two runs
// must produce byte-identical digests and output bytes — sharing
// changes cost, never content.
func runLadderCompare(family string, frames, gop, fps, div int, bench bool) error {
	spec := ladderSpec(family, frames, gop, fps, div)
	shared, err := driveLocal(&spec, live.Config{}, spec.Frames)
	if err != nil {
		return err
	}
	spec.Share = false
	solo, err := driveLocal(&spec, live.Config{}, spec.Frames)
	if err != nil {
		return err
	}
	saving := 100 * (1 - float64(shared.stats.Insts)/float64(solo.stats.Insts))
	fmt.Printf("ladder-compare %s: rungs=%d shared-insts=%d solo-insts=%d saving=%.1f%%\n",
		family, shared.stats.Rungs, shared.stats.Insts, solo.stats.Insts, saving)
	fmt.Printf("ladder-compare bytes-equal=%v digest-equal=%v (shared %d bytes, solo %d bytes)\n",
		shared.stats.Bytes == solo.stats.Bytes, shared.digest == solo.digest,
		shared.stats.Bytes, solo.stats.Bytes)
	if bench {
		fmt.Printf("BenchmarkLadderSharedInsts %d %d ns/op\n", spec.Frames, int64(shared.stats.Insts))
		fmt.Printf("BenchmarkLadderSoloInsts %d %d ns/op\n", spec.Frames, int64(solo.stats.Insts))
	}
	if shared.digest != solo.digest || shared.stats.Bytes != solo.stats.Bytes {
		return fmt.Errorf("ladder sharing changed output bytes")
	}
	return nil
}

// runStudy prints the live-vs-VOD microarchitectural comparison for
// one session under deadline pressure (EXPERIMENTS.md §live).
func runStudy(family string, frames, gop, fps, div int) error {
	spec := ladderSpec(family, frames, gop, fps, div)
	spec.Rungs, spec.Share = nil, false
	enc := encoders.MustNew(encoders.Family(family))
	plo, phi, reversed := enc.PresetRange()
	// The study runs a calibrated pressure config, not the load-mix
	// flags: a preset four effort steps from the family's fastest at a
	// 240 fps feed with a half-GOP deadline — overloaded enough that
	// the degrade policy engages and the schedule walks more than one
	// operating point.
	if reversed {
		spec.Preset = plo + 4
	} else {
		spec.Preset = phi - 4
	}
	spec.Frames, spec.Div, spec.GOP = 24, 8, 8
	spec.FPS, spec.Deadline = 240, 4
	rep, err := live.Study(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Printf("study %s p%d crf%d: frames=%d gop=%d fps=%d deadline=%d\n",
		spec.Family, spec.Preset, spec.CRF, spec.Frames, spec.GOP, spec.FPS, spec.Deadline)
	fmt.Printf("live schedule: %d operating points, misses=%d dropped=%d degrade-steps=%d\n",
		len(rep.Live), rep.Misses, rep.Dropped, rep.Degrade)
	for _, p := range rep.Live {
		fmt.Printf("  point %s p%d crf%d: %d frames, IPC %.3f, retiring %.1f%% frontend %.1f%% backend %.1f%% badspec %.1f%%\n",
			p.Family, p.Preset, p.CRF, p.Frames, p.C.IPC,
			100*p.C.TopDown.Retiring, 100*p.C.TopDown.Frontend,
			100*p.C.TopDown.Backend, 100*p.C.TopDown.BadSpec)
	}
	fmt.Printf("live (weighted): IPC %.3f, retiring %.1f%% frontend %.1f%% backend %.1f%% (mem %.1f%% core %.1f%%) badspec %.1f%%\n",
		rep.LiveIPC, 100*rep.LiveTD.Retiring, 100*rep.LiveTD.Frontend,
		100*rep.LiveTD.Backend, 100*rep.LiveTD.MemoryBound,
		100*rep.LiveTD.CoreBound, 100*rep.LiveTD.BadSpec)
	fmt.Printf("vod  (baseline): IPC %.3f, retiring %.1f%% frontend %.1f%% backend %.1f%% (mem %.1f%% core %.1f%%) badspec %.1f%%\n",
		rep.VOD.IPC, 100*rep.VOD.TopDown.Retiring, 100*rep.VOD.TopDown.Frontend,
		100*rep.VOD.TopDown.Backend, 100*rep.VOD.TopDown.MemoryBound,
		100*rep.VOD.TopDown.CoreBound, 100*rep.VOD.TopDown.BadSpec)
	return nil
}

// splitmix is the repo's stable PRNG (splitmix64) — no ambient
// randomness, no math/rand drift across Go releases.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

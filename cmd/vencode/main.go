// Command vencode encodes a procedural vbench clip with one of the five
// encoder models and reports quality, rate, timing and the dynamic
// instruction mix. With -trace it writes the encode's deterministic
// frame/stage span trace as Chrome trace-event JSON; with -optrace it
// records a micro-op window (the Pin substitute) for cmd/uarchsim and
// cmd/cbpsim; with -profile it prints the gprof-style flat profile.
//
// Usage:
//
//	vencode -encoder svt-av1 -clip game1 -crf 35 -preset 4
//	vencode -encoder x265 -clip hall -crf 28 -preset 5 -threads 4
//	vencode -encoder svt-av1 -clip game1 -crf 35 -trace game1.json -stats
//	vencode -encoder svt-av1 -clip game1 -crf 63 -preset 8 -optrace game1.vctw
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"vcprof/internal/encoders"
	"vcprof/internal/obs"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vencode:", err)
		os.Exit(1)
	}
}

// writeFile creates path, lets write fill it and closes it. A failed
// Close is a file shorter than what was written, so it is an error
// like any other.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run() error {
	var (
		encName  = flag.String("encoder", "svt-av1", "encoder family: svt-av1, x264, x265, libaom, libvpx-vp9")
		clipName = flag.String("clip", "game1", "vbench clip name (see -list)")
		crf      = flag.Int("crf", 35, "constant rate factor (family range)")
		preset   = flag.Int("preset", 4, "speed preset (family range and direction)")
		threads  = flag.Int("threads", 1, "task-graph pool width and instruction-attribution lanes")
		frames   = flag.Int("frames", 8, "frames to encode")
		scale    = flag.Int("scale", 8, "linear resolution divisor")
		trOut    = flag.String("trace", "", "write the frame/stage span trace (Chrome trace-event JSON, virtual ticks) to this file")
		stats    = flag.Bool("stats", false, "print obs counters and the self-profile table")
		traceOut = flag.String("optrace", "", "write a halfway micro-op window to this file")
		winOps   = flag.Uint64("window", perf.DefaultWindowOps, "micro-op window length for -optrace")
		profile  = flag.Bool("profile", false, "print the flat function profile")
		bsOut    = flag.String("bitstream", "", "write the decodable container to this file")
		y4mIn    = flag.String("y4m", "", "encode this .y4m file instead of a procedural clip")
		kbps     = flag.Float64("kbps", 0, "ABR target bitrate (0 = constant-quality CRF mode)")
		scenecut = flag.Bool("scenecut", false, "insert keyframes at detected scene changes")
		list     = flag.Bool("list", false, "list vbench clips and exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, m := range video.Vbench() {
			fmt.Println(m.String())
		}
		return nil
	}
	enc, err := encoders.New(encoders.Family(*encName))
	if err != nil {
		return err
	}
	var clip *video.Clip
	if *y4mIn != "" {
		f, err := os.Open(*y4mIn)
		if err != nil {
			return err
		}
		clip, err = video.ReadY4M(f, *y4mIn)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		meta, err := video.LookupClip(*clipName)
		if err != nil {
			return err
		}
		clip, err = video.Generate(meta, video.GenerateOptions{Frames: *frames, ScaleDiv: *scale})
		if err != nil {
			return err
		}
	}
	opts := encoders.Options{CRF: *crf, Preset: *preset, Threads: *threads,
		KeepBitstream: *bsOut != "",
		TargetKbps:    *kbps,
		SceneCut:      *scenecut,
		NewWorkerCtx:  func(int) *trace.Ctx { return trace.New() }}
	res, err := enc.Encode(ctx, clip, opts)
	if err != nil {
		return err
	}

	fmt.Printf("encoder      %s (crf=%d preset=%d threads=%d)\n", *encName, *crf, *preset, *threads)
	fmt.Printf("input        %s %dx%d x%d frames\n", clip.Meta.Name, clip.Meta.Width, clip.Meta.Height, len(clip.Frames))
	fmt.Printf("bitstream    %d bytes (%.1f kbps)\n", res.Bytes, res.BitrateKbps)
	fmt.Printf("quality      %.2f dB PSNR\n", res.PSNR)
	fmt.Printf("wall time    %.1f ms\n", res.Wall.Seconds()*1000)
	fmt.Printf("instructions %d\n", res.Insts)
	m := res.Mix
	fmt.Printf("mix          branch %.1f%%  load %.1f%%  store %.1f%%  avx %.1f%%  sse %.1f%%  other %.1f%%\n",
		m.Percent(trace.OpBranch), m.Percent(trace.OpLoad), m.Percent(trace.OpStore),
		m.Percent(trace.OpAVX), m.Percent(trace.OpSSE), m.Percent(trace.OpOther))
	fmt.Printf("partitions  ")
	for sh, n := range res.Shapes {
		if n > 0 {
			fmt.Printf(" %s:%d", encoders.Shape(sh), n)
		}
	}
	if res.SkipBlocks > 0 {
		fmt.Printf("  skip:%d", res.SkipBlocks)
	}
	fmt.Println()

	if *trOut != "" || *stats {
		sess := obs.NewSession()
		tr := sess.Lane(fmt.Sprintf("vencode/%s/%s", *encName, clip.Meta.Name))
		encoders.ObserveResult(tr, res)
		if *trOut != "" {
			if err := writeFile(*trOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, sess) }); err != nil {
				return err
			}
			fmt.Printf("spantrace    %d spans → %s\n", tr.SpanCount(), *trOut)
		}
		if *stats {
			fmt.Println()
			fmt.Print(obs.RenderCounters(true))
			fmt.Print(obs.RenderProfile(sess.Profile(), 20))
		}
	}

	if *bsOut != "" {
		if err := os.WriteFile(*bsOut, res.Bitstream, 0o644); err != nil {
			return err
		}
		fmt.Printf("container    %d bytes → %s\n", len(res.Bitstream), *bsOut)
	}

	if *profile {
		prof, err := perf.Profile(ctx, enc, clip, encoders.Options{CRF: *crf, Preset: *preset})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(prof.Render())
	}

	if *traceOut != "" {
		rec, total, err := perf.RecordWindow(ctx, enc, clip, encoders.Options{CRF: *crf, Preset: *preset}, 0.5, *winOps)
		if err != nil {
			return err
		}
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.Write(w, rec.Ops) }); err != nil {
			return err
		}
		fmt.Printf("optrace      %d ops (window at %d/%d) → %s\n", rec.Ops.Len(), rec.Start, total, *traceOut)
	}
	return nil
}

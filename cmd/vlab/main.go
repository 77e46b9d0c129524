// Command vlab is the bench for one operating point at a time. Its verbs
// synthesize a vbench clip, encode it with one of the five encoder
// models, decode what an encode wrote, and replay the micro-op window an
// encode records through the out-of-order core model or the branch
// prediction championship. The paper's tables and figures are
// cmd/repro's; README's "Lab recipes" spell its studies on one clip as
// vlab invocations.
//
// Usage:
//
//	vlab gen -clip hall -frames 16 -cut 8 hall.y4m
//	vlab encode -encoder x265 -clip hall -crf 28 -preset 5 -threads 4
//	vlab encode -clip game1 -crf 35 -preset 4 -profile
//	vlab encode -clip game1 -crf 63 -preset 8 -optrace game1.vctw -trace game1.json
//	vlab encode -y4m hall.y4m -kbps 400 -scenecut -bitstream hall.vcbs
//	vlab decode hall.vcbs
//	vlab uarch -predictor gshare-2KB -width 4 game1.vctw
//	vlab cbp -predictors tage-8KB,perceptron-8KB -metric missrate game1.vctw
//
// A verb that fails exits 1; an unknown verb, a bad flag or a wrong
// number of operands exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/obs"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/machine"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/uarch/topdown"
	"vcprof/internal/video"
)

// action runs a verb on its operands once its flags are parsed.
type action func(ctx context.Context, w io.Writer, args []string) error

// A verb is one subcommand: flags registers its flags on a fresh set and
// returns what runs once they are parsed.
type verb struct {
	name     string
	operands string
	min, max int // operand count bounds
	doc      string
	flags    func(fs *flag.FlagSet) action
}

var verbs = []verb{
	{"gen", "<out.y4m>", 1, 1, "synthesize a vbench clip as a .y4m file", genVerb},
	{"encode", "", 0, 0, "encode a clip; print quality, rate and instruction mix", encodeVerb},
	{"decode", "<stream.vcbs>", 1, 1, "decode a bitstream container and checksum its frames", decodeVerb},
	{"uarch", "<window.vctw>", 1, 1, "replay a window through the out-of-order core model", uarchVerb},
	{"cbp", "<window.vctw>...", 1, math.MaxInt, "score branch predictors on the branches of windows", cbpVerb},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one vlab invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var v *verb
	for i := range verbs {
		if len(args) > 0 && verbs[i].name == args[0] {
			v = &verbs[i]
		}
	}
	if v == nil {
		fmt.Fprintln(stderr, "usage: vlab <verb> [flags] [operands]  (vlab <verb> -h lists a verb's flags)")
		for _, v := range verbs {
			fmt.Fprintf(stderr, "  %-7s %s\n", v.name, v.doc)
		}
		return 2
	}
	fs := flag.NewFlagSet("vlab "+v.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vlab %s [flags] %s\n", v.name, v.operands)
		fs.PrintDefaults()
	}
	act := v.flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if n := fs.NArg(); n < v.min || n > v.max {
		fs.Usage()
		return 2
	}
	if err := act(ctx, stdout, fs.Args()); err != nil {
		fmt.Fprintf(stderr, "vlab %s: %v\n", v.name, err)
		return 1
	}
	return 0
}

// writeFile creates path, lets write fill it and closes it. A failed
// Close is a file shorter than what was written, so it is an error like
// any other.
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

// readWindow reads the window file an encode's -optrace wrote.
func readWindow(path string) (trace.Window, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Window{}, err
	}
	defer f.Close()
	return trace.Read(f)
}

func genVerb(fs *flag.FlagSet) action {
	var (
		clipName = fs.String("clip", "game1", "vbench clip name")
		frames   = fs.Int("frames", 30, "frames to synthesize")
		scale    = fs.Int("scale", 4, "linear resolution divisor (1 = native)")
		cut      = fs.Int("cut", 0, "insert a hard scene change at this frame (0 = none)")
		measure  = fs.Bool("measure", false, "print the measured content entropy")
	)
	return func(_ context.Context, w io.Writer, args []string) error {
		meta, err := video.LookupClip(*clipName)
		if err != nil {
			return err
		}
		clip, err := video.Generate(meta, video.GenerateOptions{Frames: *frames, ScaleDiv: *scale, CutAt: *cut})
		if err != nil {
			return err
		}
		if err := writeFile(args[0], func(f io.Writer) error { return video.WriteY4M(f, clip) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %dx%d@%d x%d frames (catalog entropy %.2g) → %s\n",
			meta.Name, clip.Meta.Width, clip.Meta.Height, clip.Meta.FPS, len(clip.Frames), meta.Entropy, args[0])
		if *measure {
			e, err := video.MeasureEntropy(clip)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "measured content entropy: %.2f bits\n", e)
		}
		return nil
	}
}

func encodeVerb(fs *flag.FlagSet) action {
	var (
		encName  = fs.String("encoder", "svt-av1", "encoder family: svt-av1, x264, x265, libaom, libvpx-vp9")
		clipName = fs.String("clip", "game1", "vbench clip name (see -list)")
		crf      = fs.Int("crf", 35, "constant rate factor (family range)")
		preset   = fs.Int("preset", 4, "speed preset (family range and direction)")
		threads  = fs.Int("threads", 1, "task-graph pool width and instruction-attribution lanes")
		frames   = fs.Int("frames", 8, "frames to encode")
		scale    = fs.Int("scale", 8, "linear resolution divisor")
		trOut    = fs.String("trace", "", "write the frame/stage span trace (Chrome trace-event JSON, virtual ticks) to this file")
		stats    = fs.Bool("stats", false, "print obs counters and the self-profile table")
		winOut   = fs.String("optrace", "", "write a halfway micro-op window to this file (what uarch and cbp read)")
		winOps   = fs.Uint64("window", perf.DefaultWindowOps, "micro-op window length for -optrace")
		profile  = fs.Bool("profile", false, "print the flat function profile")
		bsOut    = fs.String("bitstream", "", "write the decodable container to this file")
		y4mIn    = fs.String("y4m", "", "encode this .y4m file instead of a procedural clip")
		kbps     = fs.Float64("kbps", 0, "ABR target bitrate (0 = constant-quality CRF mode)")
		scenecut = fs.Bool("scenecut", false, "insert keyframes at detected scene changes")
		list     = fs.Bool("list", false, "list vbench clips and exit")
	)
	return func(ctx context.Context, w io.Writer, _ []string) error {
		if *list {
			for _, m := range video.Vbench() {
				fmt.Fprintln(w, m.String())
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
		res, err := enc.Encode(ctx, clip, encoders.Options{CRF: *crf, Preset: *preset, Threads: *threads,
			KeepBitstream: *bsOut != "",
			TargetKbps:    *kbps,
			SceneCut:      *scenecut,
			NewWorkerCtx:  func(int) *trace.Ctx { return trace.New() }})
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "encoder      %s (crf=%d preset=%d threads=%d)\n", *encName, *crf, *preset, *threads)
		fmt.Fprintf(w, "input        %s %dx%d x%d frames\n", clip.Meta.Name, clip.Meta.Width, clip.Meta.Height, len(clip.Frames))
		fmt.Fprintf(w, "bitstream    %d bytes (%.1f kbps)\n", res.Bytes, res.BitrateKbps)
		fmt.Fprintf(w, "quality      %.2f dB PSNR\n", res.PSNR)
		fmt.Fprintf(w, "wall time    %.1f ms\n", res.Wall.Seconds()*1000)
		fmt.Fprintf(w, "instructions %d\n", res.Insts)
		m := res.Mix
		fmt.Fprintf(w, "mix          branch %.1f%%  load %.1f%%  store %.1f%%  avx %.1f%%  sse %.1f%%  other %.1f%%\n",
			m.Percent(trace.OpBranch), m.Percent(trace.OpLoad), m.Percent(trace.OpStore),
			m.Percent(trace.OpAVX), m.Percent(trace.OpSSE), m.Percent(trace.OpOther))
		fmt.Fprintf(w, "partitions  ")
		for sh, n := range res.Shapes {
			if n > 0 {
				fmt.Fprintf(w, " %s:%d", encoders.Shape(sh), n)
			}
		}
		if res.SkipBlocks > 0 {
			fmt.Fprintf(w, "  skip:%d", res.SkipBlocks)
		}
		fmt.Fprintln(w)

		if *trOut != "" || *stats {
			sess := obs.NewSession()
			tr := sess.Lane(fmt.Sprintf("vlab/%s/%s", *encName, clip.Meta.Name))
			encoders.ObserveResult(tr, res)
			if *trOut != "" {
				if err := writeFile(*trOut, func(f io.Writer) error { return obs.WriteChromeTrace(f, sess) }); err != nil {
					return err
				}
				fmt.Fprintf(w, "spantrace    %d spans → %s\n", tr.SpanCount(), *trOut)
			}
			if *stats {
				fmt.Fprintln(w)
				fmt.Fprint(w, obs.RenderCounters(true))
				fmt.Fprint(w, obs.RenderProfile(sess.Profile(), 20))
			}
		}

		if *bsOut != "" {
			if err := os.WriteFile(*bsOut, res.Bitstream, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "container    %d bytes → %s\n", len(res.Bitstream), *bsOut)
		}

		// The instrumented runs below measure the CRF/preset point on one
		// thread, as the paper's gprof and Pin runs did.
		point := encoders.Options{CRF: *crf, Preset: *preset}
		if *profile {
			prof, err := perf.Profile(ctx, enc, clip, point)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, prof.Render())
		}

		if *winOut != "" {
			rec, total, err := perf.RecordWindow(ctx, enc, clip, point, 0.5, *winOps)
			if err != nil {
				return err
			}
			if err := writeFile(*winOut, func(f io.Writer) error { return trace.Write(f, rec.Ops) }); err != nil {
				return err
			}
			fmt.Fprintf(w, "optrace      %d ops (window at %d/%d) → %s\n", rec.Ops.Len(), rec.Start, total, *winOut)
		}
		return nil
	}
}

func decodeVerb(*flag.FlagSet) action {
	return func(_ context.Context, w io.Writer, args []string) error {
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		frames, err := encoders.DecodeBitstream(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "container    %d bytes\n", len(data))
		fmt.Fprintf(w, "frames       %d\n", len(frames))
		if len(frames) > 0 {
			fmt.Fprintf(w, "resolution   %dx%d\n", frames[0].Width(), frames[0].Height())
		}
		for _, f := range frames {
			sum := crc32.ChecksumIEEE(f.Y.Pix)
			sum = crc32.Update(sum, crc32.IEEETable, f.U.Pix)
			sum = crc32.Update(sum, crc32.IEEETable, f.V.Pix)
			fmt.Fprintf(w, "  frame %2d   crc32 %08x\n", f.Index, sum)
		}
		return nil
	}
}

func uarchVerb(fs *flag.FlagSet) action {
	m := machine.Xeon()
	fs.StringVar(&m.Predictor, "predictor", m.Predictor, "branch predictor ("+strings.Join(bpred.Names(), ", ")+")")
	fs.IntVar(&m.Width, "width", m.Width, "machine width")
	fs.IntVar(&m.ROBSize, "rob", m.ROBSize, "reorder buffer entries")
	return func(_ context.Context, w io.Writer, args []string) error {
		win, err := readWindow(args[0])
		if err != nil {
			return err
		}
		sim, err := pipeline.New(m)
		if err != nil {
			return err
		}
		res, err := sim.Run(win)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ops          %d\n", res.Ops)
		fmt.Fprintf(w, "cycles       %d\n", res.Cycles)
		fmt.Fprintf(w, "IPC          %.3f\n", res.IPC)
		fmt.Fprintf(w, "branches     %d (%.2f%% mispredicted, %.3f MPKI)\n",
			res.Branches, 100*float64(res.Mispredicts)/float64(max(res.Branches, 1)), res.BranchMPKI)
		fmt.Fprintf(w, "cache MPKI   L1D %.2f  L2 %.2f  LLC %.3f\n", res.L1DMPKI, res.L2MPKI, res.LLCMPKI)
		k := float64(res.Ops) / 1000
		fmt.Fprintf(w, "stalls/kinst FU %.2f  RS %.2f  LQ %.2f  SQ %.2f  ROB %.2f\n",
			float64(res.StallFU)/k, float64(res.StallRS)/k, float64(res.StallLQ)/k,
			float64(res.StallSQ)/k, float64(res.StallROB)/k)
		td, err := topdown.FromSlots(res.TotalSlots, res.RetiringSlots, res.BadSpecSlots,
			res.FrontendSlots, res.BackendSlots, res.StallLQ+res.StallSQ, res.StallFU+res.StallRS)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "top-down     %s\n", td)
		return nil
	}
}

func cbpVerb(fs *flag.FlagSet) action {
	var (
		predictors = fs.String("predictors", strings.Join(bpred.PaperSet(), ","), "comma-separated predictor names")
		metric     = fs.String("metric", "mpki", "table metric: mpki or missrate")
	)
	return func(_ context.Context, w io.Writer, args []string) error {
		var traces []cbp.Trace
		for _, path := range args {
			win, err := readWindow(path)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			tr, err := cbp.FromWindow(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), win)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			traces = append(traces, tr)
		}
		scores, err := cbp.Championship(strings.Split(*predictors, ","), traces)
		if err != nil {
			return err
		}
		tbl, err := cbp.Table(scores, *metric)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tbl)
		return nil
	}
}

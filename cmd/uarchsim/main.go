// Command uarchsim replays a recorded window (from vencode -optrace)
// through the out-of-order core model of the paper's Xeon E5-2650 v4 and
// prints cycles, IPC, MPKIs, resource stalls and the top-down slot
// breakdown.
//
// Usage:
//
//	uarchsim game1.vctw
//	uarchsim -predictor gshare-2KB -width 4 game1.vctw
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/uarch/topdown"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uarchsim:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := pipeline.Broadwell()
	flag.StringVar(&cfg.Predictor, "predictor", cfg.Predictor, "branch predictor ("+strings.Join(bpred.Names(), ", ")+")")
	flag.IntVar(&cfg.Width, "width", cfg.Width, "machine width")
	flag.IntVar(&cfg.ROBSize, "rob", cfg.ROBSize, "reorder buffer entries")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: uarchsim [flags] <trace-file>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	win, err := trace.Read(f)
	if err != nil {
		return err
	}

	sim, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	res, err := sim.Run(win)
	if err != nil {
		return err
	}

	fmt.Printf("ops          %d\n", res.Ops)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("IPC          %.3f\n", res.IPC)
	fmt.Printf("branches     %d (%.2f%% mispredicted, %.3f MPKI)\n",
		res.Branches, 100*float64(res.Mispredicts)/float64(max(res.Branches, 1)), res.BranchMPKI)
	fmt.Printf("cache MPKI   L1D %.2f  L2 %.2f  LLC %.3f\n", res.L1DMPKI, res.L2MPKI, res.LLCMPKI)
	k := float64(res.Ops) / 1000
	fmt.Printf("stalls/kinst FU %.2f  RS %.2f  LQ %.2f  SQ %.2f  ROB %.2f\n",
		float64(res.StallFU)/k, float64(res.StallRS)/k, float64(res.StallLQ)/k,
		float64(res.StallSQ)/k, float64(res.StallROB)/k)
	td, err := topdown.FromSlots(res.TotalSlots, res.RetiringSlots, res.BadSpecSlots,
		res.FrontendSlots, res.BackendSlots, res.StallLQ+res.StallSQ, res.StallFU+res.StallRS)
	if err != nil {
		return err
	}
	fmt.Printf("top-down     %s\n", td)
	return nil
}

// Command vcbench is the repository's one benchmark: six fixed,
// seeded, closed-loop workloads that between them load every storey of
// the tower (codec kernel → encoder → trace.Ctx → predictor/cache/
// pipeline simulation → perf.Stat → harness → sched → vcprofd →
// vcgate → live sessions), measured end to end with tracing off and
// layer by layer with bench-side spans on. See README.md.
//
//	go run ./bench -workload stat_grid -seed 3 -seconds 10 -trace 0   one run, in this process
//	go run ./bench -runs 5 -out bench/results/baseline.json           the suite, one child process per run
//	go run ./bench -compare old.json new.json                         bound-aware verdict table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadF = fs.String("workload", "", "run only this workload (one of "+fmt.Sprint(workloadNames)+")")
		seed      = fs.Uint64("seed", digestSeed, "mix generator seed")
		seconds   = fs.Float64("seconds", runSeconds, "measuring time per run on the reference box; converted to whole passes")
		trace     = fs.Int("trace", -1, "0: end-to-end metrics, spans off; 1: per-layer metrics, spans on (suite default: both)")
		runs      = fs.Int("runs", 0, "suite mode: untraced runs per workload, each in a fresh child process")
		outPath   = fs.String("out", "", "suite mode: write the fixed-schema results here (and <out>.layers.json beside it)")
		compare   = fs.Bool("compare", false, "compare two results files: vcbench -compare old.json new.json")
		short     = fs.Bool("short", false, "~1/50 scale smoke of the same code paths")
		update    = fs.Bool("update-digests", false, "regenerate bench/testdata/digests.json from this tree")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vcbench:", strings.TrimPrefix(err.Error(), "vcbench: "))
		return 1
	}
	ctx := context.Background()
	scratch := filepath.Join("bench", "out")

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: vcbench -compare old.json new.json")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0

	case *update:
		if err := updateDigests(ctx, scratch, stderr); err != nil {
			return fail(err)
		}
		return 0

	case *workloadF != "" && *runs == 0 && *outPath == "":
		// The contract's single run: this process is already fresh.
		cfg := runConfig{workload: *workloadF, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, scratch: scratch}
		rep, err := runWorkload(ctx, cfg, stderr)
		if err != nil {
			return fail(err)
		}
		return emit(rep, stdout, stderr)
	}

	s := suite{seed: *seed, seconds: *seconds, runs: *runs, short: *short, trace: *trace, out: *outPath}
	if *workloadF != "" {
		s.workloads = []string{*workloadF}
	}
	if err := s.run(ctx, stdout, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the run's detail line and then the result line, and
// turns a failed correctness check into a non-zero exit.
func emit(rep *runReport, stdout, stderr io.Writer) int {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	metrics, err := wireMetrics(defs, rep.Metrics)
	if err != nil {
		fmt.Fprintln(stderr, "vcbench:", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "vcbench: INCORRECT:", p)
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "vcbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "vcbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct || rep.Failed > 0 {
		return 1
	}
	return 0
}

// detailPrefix marks the stdout line carrying the full runReport for
// the suite parent; the contract reads only the line after it.
const detailPrefix = "#vcbench-run "

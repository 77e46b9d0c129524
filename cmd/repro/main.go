// Command repro regenerates the paper's tables and figures through the
// harness experiment engine. Each experiment prints one or more aligned
// text tables; -csv writes them as CSV files instead. Cells shared
// between experiments (the SVT-AV1 CRF grid feeds figs 2b and 4–7) are
// measured once per process, and -j fans independent cells out across
// a bounded worker pool.
//
// Usage:
//
//	repro -list                  # show all experiment IDs
//	repro fig1 fig4              # run selected experiments
//	repro -quick all             # everything at the fast scale
//	repro -csv out/ fig8         # write CSVs to out/
//	repro -j 8 -v all            # 8 workers, per-experiment stats
//	repro -trace out.json fig4   # Chrome trace (virtual ticks) of the run
//	repro -stats fig4            # obs counters + self-profile afterwards
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"vcprof/internal/harness"
	"vcprof/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick   = flag.Bool("quick", false, "use the fast three-clip scale")
		csvDir  = flag.String("csv", "", "write CSV files into this directory instead of printing")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("j", runtime.NumCPU(), "max concurrent cell measurements")
		verbose = flag.Bool("v", false, "report per-experiment wall time and cache hits")
		trOut   = flag.String("trace", "", "write a Chrome trace-event JSON (virtual ticks) of the run to this file")
		stats   = flag.Bool("stats", false, "print obs counters and the self-profile table after the run")
		foldOut = flag.String("fold", "", "write folded stacks (flamegraph.pl collapsed format, virtual ticks) of the run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.List() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ids := flag.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiments given (use -list, or 'all')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil // RunAll's default: every registered experiment
	}
	scale := harness.DefaultScale()
	if *quick {
		scale = harness.QuickScale()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var sess *obs.Session
	if *trOut != "" || *stats || *foldOut != "" {
		sess = obs.NewSession()
	}
	rep, err := harness.RunAll(ctx, scale, harness.Options{Workers: *workers, Experiments: ids, Obs: sess})
	if rep != nil {
		for _, er := range rep.Results {
			if *verbose {
				fmt.Fprintf(os.Stderr, "%-20s %8.2fs  cells=%-3d hits=%d\n",
					er.ID, er.Wall.Seconds(), er.Cells, er.CacheHits)
			}
			for _, t := range er.Tables {
				if *csvDir != "" {
					path := filepath.Join(*csvDir, t.ID+".csv")
					if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
						return err
					}
					fmt.Fprintf(os.Stderr, "  wrote %s\n", path)
				} else {
					fmt.Println(t.Render())
				}
			}
		}
	}
	if err != nil {
		return err
	}
	if *verbose {
		st := harness.CellCacheStats()
		fmt.Fprintf(os.Stderr, "total %.2fs  workers=%d  cache: %d hits / %d misses (%d entries, weight %d/%d)\n",
			rep.Wall.Seconds(), rep.Workers, st.Hits, st.Misses, st.Entries, st.Weight, st.Cap)
	}
	if *trOut != "" {
		f, err := os.Create(*trOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, sess); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace → %s (load in chrome://tracing or ui.perfetto.dev)\n", *trOut)
	}
	if *foldOut != "" {
		f, err := os.Create(*foldOut)
		if err != nil {
			return err
		}
		if err := obs.WriteFolded(f, obs.FoldedProfile(sess)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "folded stacks → %s (feed to flamegraph.pl)\n", *foldOut)
	}
	if *stats {
		fmt.Print(obs.RenderCounters(true))
		fmt.Print(obs.RenderProfile(sess.Profile(), 20))
	}
	return nil
}

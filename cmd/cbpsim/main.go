// Command cbpsim runs the Championship Branch Prediction evaluation on
// recorded windows (from vencode -optrace): every named predictor is
// scored by miss rate and MPKI on each window's conditional branches.
//
// Usage:
//
//	cbpsim game1.vctw hall.vctw
//	cbpsim -predictors tage-8KB,perceptron-8KB -metric missrate game1.vctw
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vcprof/internal/cbp"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cbpsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		predictors = flag.String("predictors", strings.Join(bpred.PaperSet(), ","), "comma-separated predictor names")
		metric     = flag.String("metric", "mpki", "table metric: mpki or missrate")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: cbpsim [flags] <trace-file>...")
	}
	var traces []cbp.Trace
	for _, path := range flag.Args() {
		tr, err := readTrace(path)
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
	fmt.Print(tbl)
	return nil
}

// readTrace reads the window file at path as a CBP trace named after it.
func readTrace(path string) (cbp.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return cbp.Trace{}, err
	}
	defer f.Close()
	win, err := trace.Read(f)
	if err != nil {
		return cbp.Trace{}, err
	}
	return cbp.FromWindow(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), win)
}

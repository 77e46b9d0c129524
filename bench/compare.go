package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// The four verdicts of -compare. "unresolved" is the honest answer
// when the run-to-run spread is wider than the metric's bound: the
// medians cannot tell unchanged from moved.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse neu's median reads than old's, as a share
// of old's median; negative means better.
func worseBy(better string, old, neu float64) float64 {
	if old == 0 {
		return 0
	}
	d := (neu - old) / old
	if better == higher {
		d = -d
	}
	return d
}

// allWorse reports whether every run of a reads worse than every run
// of b.
func allWorse(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(better, y, x) <= 0 {
				return false
			}
		}
	}
	return true
}

// verdict applies the benchmark's own bound. A median that moved past
// the bound is a regression or an improvement — unless either side's
// interquartile spread is wider than the bound, in which case only
// complete separation (every run of one side beyond every run of the
// other) decides, and anything less is unresolved.
func verdict(better string, bound float64, old, neu summary) string {
	w := worseBy(better, old.Median, neu.Median)
	noisy := old.spread() > bound || neu.spread() > bound
	switch {
	case slices.Equal(old.Values, neu.Values):
		return verdictUnchanged // the same measurements, however noisy
	case w > bound && (!noisy || allWorse(better, neu.Values, old.Values)):
		return verdictRegressed
	case -w > bound && (!noisy || allWorse(better, old.Values, neu.Values)):
		return verdictImproved
	case noisy:
		return verdictUnresolved
	}
	return verdictUnchanged
}

func readSuiteFile(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != suiteSchema || f.Kind != "end_to_end" {
		return nil, fmt.Errorf("%s: schema %q kind %q, want %q end_to_end", path, f.Schema, f.Kind, suiteSchema)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether anything regressed: a metric past its bound, a
// larger share of failed ops, or — for equal seed and scale — a
// different result digest.
func compareFiles(oldPath, newPath string, w io.Writer) (regressed bool, err error) {
	old, err := readSuiteFile(oldPath)
	if err != nil {
		return false, err
	}
	neu, err := readSuiteFile(newPath)
	if err != nil {
		return false, err
	}
	if old.NProc != neu.NProc {
		fmt.Fprintf(w, "warning: nproc %d vs %d — results across machines are not comparable\n", old.NProc, neu.NProc)
	}
	sameInputs := old.Seed == neu.Seed && old.Seconds == neu.Seconds && old.Short == neu.Short
	oldBy := map[string]suiteWorkload{}
	for _, wl := range old.Workloads {
		oldBy[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, nw := range neu.Workloads {
		ow, ok := oldBy[nw.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s (not in %s)\n", nw.Name, oldPath)
			continue
		}
		for _, d := range endToEnd {
			om, nm := ow.Metrics[d.Name], nw.Metrics[d.Name]
			v := verdict(d.Better, d.Bound, om.summary, nm.summary)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				nw.Name, d.Name, om.Median, nm.Median, 100*(nm.Median-om.Median)/nonZero(om.Median), 100*d.Bound, v)
		}
		if share(nw) > share(ow) {
			regressed = true
			fmt.Fprintf(w, "%-12s failed ops %d/%d -> %d/%d  regressed\n", nw.Name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		}
		if !nw.Correct {
			regressed = true
			fmt.Fprintf(w, "%-12s correctness checks failed in %s\n", nw.Name, newPath)
		}
		if sameInputs && ow.Digest != nw.Digest {
			regressed = true
			fmt.Fprintf(w, "%-12s digest %s -> %s  CORRECTNESS FAILURE: same inputs, different results\n", nw.Name, ow.Digest[:16], nw.Digest[:16])
		}
	}
	return regressed, nil
}

func share(wl suiteWorkload) float64 {
	if wl.Attempted == 0 {
		return 0
	}
	return float64(wl.Failed) / float64(wl.Attempted)
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

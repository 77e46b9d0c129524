package vcprof

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// BENCH_HISTORY.json is the benchmark's trajectory: one entry per PR
// that measured anything, in PR order. Entries back-filled from
// CHANGES.md say "source":"changes" and carry the claim's ratio and
// wins as that file records them; a "measured" entry carries its own
// interleaved pairs — per workload and metric the parent's median and
// quartiles, the change's median and the wins — and the offset within
// its 64-byte line of each hot symbol on both sides. Entries compare
// only through their own pairs: the file is not a baseline.

type historyClaim struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Target   string `json:"target,omitempty"`
}

type historyResult struct {
	Ratio *float64 `json:"ratio"`
	Wins  *int     `json:"wins"`
	Pairs *int     `json:"pairs"`
	Note  string   `json:"note"`
}

type historyQuartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type historyMetric struct {
	Parent historyQuartiles `json:"parent"`
	Change struct {
		Median float64 `json:"median"`
	} `json:"change"`
	Ratio float64 `json:"ratio"`
	Wins  int     `json:"wins"`
}

type historyWorkload struct {
	Pairs   int                      `json:"pairs"`
	Metrics map[string]historyMetric `json:"metrics"`
}

type historyEntry struct {
	PR         int                        `json:"pr"`
	Title      string                     `json:"title"`
	Source     string                     `json:"source"`
	Claim      json.RawMessage            `json:"claim"`
	Result     *historyResult             `json:"result"`
	Parent     string                     `json:"parent"`
	CPU        string                     `json:"cpu"`
	NProc      int                        `json:"nproc"`
	Go         string                     `json:"go"`
	Seeds      []uint64                   `json:"seeds"`
	Pairs      int                        `json:"pairs"`
	Method     string                     `json:"method"`
	Workloads  map[string]historyWorkload `json:"workloads"`
	HotSymbols map[string]struct {
		Parent int `json:"parent"`
		Change int `json:"change"`
	} `json:"hot_symbols"`
}

// The ledger's first entry is the one that added the benchmark, and
// entries up to lastBackfilledPR were taken from CHANGES.md; every
// later one is measured.
const (
	firstPR          = 11
	lastBackfilledPR = 45
)

// TestBenchHistory checks BENCH_HISTORY.json's schema and order, and
// that every claim and every measured row names a workload and an
// end-to-end metric of BENCHMARK.json. It only reads the two files.
func TestBenchHistory(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.EndToEnd {
		metrics[m.Name] = true
	}

	raw, err = os.ReadFile("BENCH_HISTORY.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var entries []historyEntry
	if err := dec.Decode(&entries); err != nil {
		t.Fatalf("BENCH_HISTORY.json: %v", err)
	}
	if len(entries) == 0 || entries[0].PR != firstPR {
		t.Fatalf("BENCH_HISTORY.json must start at pr %d, the entry that added the benchmark", firstPR)
	}
	for i, e := range entries {
		where := "pr " + strconv.Itoa(e.PR)
		if i > 0 && e.PR <= entries[i-1].PR {
			t.Errorf("%s follows pr %d: entries must be in increasing pr order", where, entries[i-1].PR)
		}
		if e.Title == "" {
			t.Errorf("%s has no title", where)
		}
		if len(e.Claim) == 0 {
			t.Errorf(`%s has no "claim" (null when it claims nothing)`, where)
		} else if string(e.Claim) != "null" {
			var c historyClaim
			cd := json.NewDecoder(bytes.NewReader(e.Claim))
			cd.DisallowUnknownFields()
			if err := cd.Decode(&c); err != nil {
				t.Errorf("%s claim: %v", where, err)
			}
			if !workloads[c.Workload] || !metrics[c.Metric] {
				t.Errorf("%s claims %q %q, which BENCHMARK.json does not list as a workload and an end-to-end metric",
					where, c.Workload, c.Metric)
			}
		}
		switch e.Source {
		case "changes":
			if e.PR > lastBackfilledPR {
				t.Errorf("%s comes after the back-fill and must be measured", where)
			}
			r := e.Result
			if r == nil || r.Note == "" {
				t.Errorf("%s: a back-filled entry needs a result with a note", where)
				continue
			}
			if string(e.Claim) != "null" && (r.Ratio == nil || *r.Ratio <= 0 || r.Wins == nil || r.Pairs == nil ||
				*r.Pairs <= 0 || *r.Wins < 0 || *r.Wins > *r.Pairs) {
				t.Errorf("%s: a claim's result needs a positive ratio and wins out of pairs", where)
			}
		case "measured":
			checkMeasured(t, where, &e, workloads, metrics)
		default:
			t.Errorf(`%s: source %q, want "changes" or "measured"`, where, e.Source)
		}
	}
}

func checkMeasured(t *testing.T, where string, e *historyEntry, workloads, metrics map[string]bool) {
	t.Helper()
	if e.Parent == "" || e.CPU == "" || e.NProc <= 0 || !strings.HasPrefix(e.Go, "go") ||
		len(e.Seeds) == 0 || e.Pairs <= 0 || e.Method == "" {
		t.Errorf("%s: a measured entry needs parent, cpu, nproc, go, seeds, pairs and method", where)
	}
	if len(e.Workloads) == 0 {
		t.Errorf("%s measured no workload", where)
	}
	for w, wl := range e.Workloads {
		if !workloads[w] {
			t.Errorf("%s measured %q, which BENCHMARK.json does not list", where, w)
		}
		if wl.Pairs <= 0 || wl.Pairs > e.Pairs || len(wl.Metrics) == 0 {
			t.Errorf("%s %s: %d pairs of %d and %d metrics", where, w, wl.Pairs, e.Pairs, len(wl.Metrics))
		}
		for m, r := range wl.Metrics {
			if !metrics[m] {
				t.Errorf("%s %s reports %q, which is no end-to-end metric of BENCHMARK.json", where, w, m)
			}
			p := r.Parent
			if p.Q1 > p.Median || p.Median > p.Q3 || r.Wins < 0 || r.Wins > wl.Pairs || r.Ratio <= 0 {
				t.Errorf("%s %s %s: parent quartiles %v, wins %d of %d, ratio %v", where, w, m, p, r.Wins, wl.Pairs, r.Ratio)
			}
		}
	}
	if len(e.HotSymbols) == 0 {
		t.Errorf("%s records no hot symbol's line offset", where)
	}
	for s, o := range e.HotSymbols {
		if o.Parent < 0 || o.Parent >= 64 || o.Change < 0 || o.Change >= 64 {
			t.Errorf("%s %s: line offsets %d and %d, want [0, 64)", where, s, o.Parent, o.Change)
		}
	}
}

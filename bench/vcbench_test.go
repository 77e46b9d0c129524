package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/harness"
)

var updateBenchmarkJSON = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.50}, {19, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {60, 0.75},
		{99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {240, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		got := tailRule(c.n)
		if got != c.want {
			t.Errorf("tailRule(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule's own statement: at least ten samples beyond, unless
		// even the median cannot have them.
		if beyond := c.n * (1000 - int(math.Round(got*1000))); beyond < 10*1000 && got != 0.50 {
			t.Errorf("tailRule(%d) = %v leaves %d/1000 samples beyond", c.n, got, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 values = %v, %v; want 1, 3", q1, q3)
	}
	if s := summarize(v); math.Abs(s.spread()-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s.spread())
	}
}

func TestMidBand(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {5, 3}, {9, 5}, // plain median below ten values
		{10, 5.5},  // values 5, 6
		{20, 10.5}, // values 9..12
		{40, 20.5}, // values 17..24
	} {
		if got := midBand(seq(c.n)); got != c.want {
			t.Errorf("midBand(1..%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// A gap at the middle: the plain median reads 55, anywhere between
	// the clusters; the band stays with the values around it.
	gap := append(seq(10), 100, 101, 102, 103, 104, 105, 106, 107, 108, 109)
	if got := midBand(gap); got != (9+10+100+101)/4.0 {
		t.Errorf("midBand across a gap = %v", got)
	}
}

// TestDemotedTail pins what demoting a workload's tail buys: one pass
// in a host stall owns the run's pooled p95, and does not move the
// median of the per-pass p75s.
func TestDemotedTail(t *testing.T) {
	res := &loopResult{}
	for p := 0; p < 6; p++ {
		pass := make([][]op, 40)
		for u := range pass {
			lat := time.Duration(u+1) * time.Millisecond
			if p == 2 && u >= 25 {
				lat = time.Second
			}
			pass[u] = []op{{latency: lat}}
		}
		res.ops = append(res.ops, pass)
		res.passes = append(res.passes, nominalPass)
	}
	for _, c := range []struct {
		rules rowRules
		want  float64
	}{{rowRules{}, 1000}, {workloadRules["live_ladder"], 30.25}} {
		m, err := endToEndMetrics(res, 2, 0, c.rules)
		if err != nil {
			t.Fatal(err)
		}
		if got := m["latency_p95_ms"]; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%+v: latency_p95_ms = %v, want %v", c.rules, got, c.want)
		}
	}
}

// nominalPass is a pass on a host at nominal speed: the reference
// kernel took refNominalMS a call.
var nominalPass = passStat{refCalls: 1000, refSeconds: refNominalMS}

// TestHostFactor pins the normalisation: on a host where the reference
// kernel takes twice its nominal time, host-time rows read half (rates
// double) and the counting rows do not move.
func TestHostFactor(t *testing.T) {
	build := func(slow float64) *loopResult {
		res := &loopResult{}
		for p := 0; p < 3; p++ {
			pass := make([][]op, 20)
			for u := range pass {
				pass[u] = []op{{latency: time.Duration(float64(u+1) * slow * float64(time.Millisecond)), insts: 1000}}
			}
			st := nominalPass
			st.refSeconds *= slow
			st.cpuSeconds, st.mallocs, st.allocBytes = 0.4*slow, 2000, 20<<10
			res.ops = append(res.ops, pass)
			res.passes = append(res.passes, st)
		}
		return res
	}
	quiet, err := endToEndMetrics(build(1), 2, 0.5, rowRules{})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := endToEndMetrics(build(2), 2, 2*0.5, rowRules{})
	if err != nil {
		t.Fatal(err)
	}
	if f := build(2).hostFactor(); f != 2 {
		t.Fatalf("hostFactor = %v, want 2", f)
	}
	for name, v := range quiet {
		if name == "peak_rss_mb" {
			continue
		}
		if math.Abs(busy[name]-v) > 1e-9*math.Abs(v) {
			t.Errorf("%s: %v on the quiet host, %v on one half as fast", name, v, busy[name])
		}
	}
	if quiet["cpu_s_per_op"] != 0.02 || quiet["allocs_per_op"] != 100 || quiet["setup_s"] != 0.5 {
		t.Errorf("quiet rows: %v", quiet)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	lanes := [][]span{{
		{Name: "op", Parent: -1, Start: msd(0), End: msd(100)},
		{Name: "a", Parent: 0, Start: msd(10), End: msd(40)},
		{Name: "b", Parent: 0, Start: msd(30), End: msd(60)}, // overlaps a: union is 10..60
		{Name: "leaf", Parent: 1, Start: msd(15), End: msd(20)},
		{Name: "b", Parent: 0, Start: msd(90), End: msd(120)}, // clipped to the parent's end
	}, {
		{Name: "op", Parent: -1, Start: msd(0), End: msd(10)},
	}}
	got := map[string]selfRow{}
	for _, r := range selfTimes(lanes) {
		got[r.Name] = r
	}
	want := map[string]selfRow{
		"op":   {Name: "op", Count: 2, Total: msd(110), Self: msd(100 - 50 - 10 + 10)},
		"a":    {Name: "a", Count: 1, Total: msd(30), Self: msd(25)},
		"b":    {Name: "b", Count: 2, Total: msd(60), Self: msd(60)},
		"leaf": {Name: "leaf", Count: 1, Total: msd(5), Self: msd(5)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times:\n got %+v\nwant %+v", got, want)
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, lanes); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 6 {
		t.Fatalf("chrome trace: %d events, err %v", len(doc.TraceEvents), err)
	}

	// Tracing off is a nil tracer: every call is a no-op.
	var off *tracer
	off.end(0, off.begin(0, "x", 0, -1))
}

// planOf renders everything a workload's plan decided, one string per
// pass.
func planOf(t *testing.T, name string, seed uint64, passes int) []string {
	t.Helper()
	w, err := newWorkload(name, params{seed: seed, clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	units := w.plan(passes)
	out := make([]string, len(units))
	for p := range out {
		var v any
		switch w := w.(type) {
		case *statGrid:
			v = w.cells[p]
		case *replayGrid:
			v = w.points[p]
		case *serveCold:
			v = w.specs[p]
		case *serveWarm:
			v = w.specs[p]
		case *gateMix:
			v = w.specs[p]
		case *liveLadder:
			v = w.specs[p]
		}
		out[p] = fmt.Sprintf("%d units: %+v", units[p], v)
	}
	return out
}

func TestMixGenerator(t *testing.T) {
	for _, name := range workloadNames {
		a := planOf(t, name, 7, 4)
		if !reflect.DeepEqual(a, planOf(t, name, 7, 4)) {
			t.Errorf("%s: same seed, different specs", name)
		}
		if reflect.DeepEqual(a, planOf(t, name, 8, 4)) {
			t.Errorf("%s: seeds 7 and 8 gave identical specs", name)
		}
		// A pass's op list must not depend on how many passes follow.
		if long := planOf(t, name, 7, 6); !reflect.DeepEqual(a, long[:4]) {
			t.Errorf("%s: a pass changed when the plan grew", name)
		}
	}
}

func TestDistinctKeyWorkloadsAreDistinct(t *testing.T) {
	p := params{seed: 3, clients: 2}

	w, _ := newWorkload("serve_cold", p)
	cold := w.(*serveCold)
	seen := map[string]bool{}
	coldPasses := coldCycle * (anchorShifts(coldAnchors) + 1)
	cold.plan(coldPasses + 5) // the plan caps itself
	for _, pass := range cold.specs {
		for _, s := range pass {
			if seen[s.Key()] {
				t.Fatalf("serve_cold: key %s repeats", s.Key())
			}
			seen[s.Key()] = true
		}
	}
	if len(seen) != 40*coldPasses {
		t.Fatalf("serve_cold: %d distinct keys, want %d", len(seen), 40*coldPasses)
	}

	w, _ = newWorkload("gate_mix", p)
	gate := w.(*gateMix)
	units := gate.plan(1000)
	seen = map[string]bool{}
	for pi, pass := range gate.specs {
		if units[pi] != 2*len(pass) || gate.repeatFrom < 40 || len(pass) != 120 {
			t.Fatalf("gate_mix pass %d: %d units over %d specs, repeat distance %d", pi, units[pi], len(pass), gate.repeatFrom)
		}
		for _, s := range pass {
			if seen[s.Key()] {
				t.Fatalf("gate_mix: first submission of %s repeats", s.Key())
			}
			seen[s.Key()] = true
		}
		// The second half resubmits the first, the same distance later.
		for u := range pass {
			a, _ := gate.specAt(pi, u)
			b, _ := gate.specAt(pi, u+gate.repeatFrom)
			if a.Key() != b.Key() {
				t.Fatalf("gate_mix pass %d unit %d: repeat is a different spec", pi, u)
			}
		}
	}

	stat := &statGrid{params: p}
	stat.plan(statCRFPoints)
	cells := map[harness.Cell]bool{}
	for _, pass := range stat.cells {
		for _, c := range pass {
			if cells[c] {
				t.Fatalf("stat_grid: cell %v repeats inside one grid cycle", c)
			}
			cells[c] = true
		}
	}
	if len(cells) != 60 {
		t.Fatalf("stat_grid: %d distinct cells per cycle, want 60", len(cells))
	}

	lv := &liveLadder{params: p}
	lv.plan(1000)
	seen = map[string]bool{}
	for _, pass := range lv.specs {
		for i := range pass {
			key, err := pass[i].Key()
			if err != nil {
				t.Fatalf("live_ladder: invalid session spec: %v", err)
			}
			if seen[key] {
				t.Fatalf("live_ladder: session %s repeats", key)
			}
			seen[key] = true
		}
	}
}

// TestPassesShareComposition pins what makes the median over passes
// meaningful: every pass of a cycle draws the same count from every
// cost stratum.
func TestPassesShareComposition(t *testing.T) {
	p := params{seed: 9, clients: 2}
	tally := func(name string, passes [][]string, perPass map[string]int) {
		t.Helper()
		for pi, pass := range passes {
			got := map[string]int{}
			for _, k := range pass {
				got[k]++
			}
			if !reflect.DeepEqual(got, perPass) {
				t.Errorf("%s pass %d: strata %v, want %v", name, pi, got, perPass)
			}
		}
	}
	want := func(keys []string, n int) map[string]int {
		m := map[string]int{}
		for _, k := range keys {
			m[k] = n
		}
		return m
	}
	var fams, famClips []string
	for _, f := range encodersFamilies() {
		fams = append(fams, f)
		for _, c := range benchClips {
			famClips = append(famClips, f+"/"+c)
		}
	}

	stat := &statGrid{params: p}
	stat.plan(2 * statCRFPoints)
	var passes [][]string
	for _, pass := range stat.cells {
		var ks []string
		for _, c := range pass {
			ks = append(ks, string(c.Family)+"/"+c.Clip)
		}
		passes = append(passes, ks)
	}
	tally("stat_grid", passes, want(famClips, 1))

	w, _ := newWorkload("serve_cold", p)
	cold := w.(*serveCold)
	cold.plan(coldCycle)
	passes = nil
	for _, pass := range cold.specs {
		var ks []string
		for _, s := range pass {
			ks = append(ks, s.Family+"/"+s.Clip)
		}
		passes = append(passes, ks)
	}
	tally("serve_cold", passes, want(famClips, 2))

	rp := &replayGrid{params: p}
	rp.plan(len(benchClips))
	passes = nil
	for _, pass := range rp.points {
		var ks []string
		for _, pt := range pass {
			ks = append(ks, string(pt.fam))
		}
		passes = append(passes, ks)
	}
	tally("replay_grid", passes, want(fams, 1))

	lv := &liveLadder{params: p}
	lv.plan(liveCycle)
	passes = nil
	for _, pass := range lv.specs {
		var ks []string
		for _, s := range pass {
			ks = append(ks, s.Family)
		}
		passes = append(passes, ks)
	}
	tally("live_ladder", passes, want(fams, 2))
}

func encodersFamilies() []string {
	var out []string
	for _, f := range encoders.Families() {
		out = append(out, string(f))
	}
	return out
}

func summaryOf(v ...float64) summary { return summarize(v) }

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name     string
		better   string
		bound    float64
		old, neu summary
		want     string
	}{
		{"identical", lower, 0.10, summaryOf(10, 10.1, 9.9), summaryOf(10, 10.1, 9.9), verdictUnchanged},
		{"identical and noisy", lower, 0.10, summaryOf(8, 10, 12, 9, 11), summaryOf(8, 10, 12, 9, 11), verdictUnchanged},
		{"inside bound", lower, 0.10, summaryOf(10, 10.1, 9.9), summaryOf(10.5, 10.6, 10.4), verdictUnchanged},
		{"slower past bound", lower, 0.10, summaryOf(10, 10.1, 9.9), summaryOf(11.5, 11.6, 11.4), verdictRegressed},
		{"faster past bound", lower, 0.10, summaryOf(10, 10.1, 9.9), summaryOf(8, 8.1, 7.9), verdictImproved},
		{"higher is better, dropped", higher, 0.10, summaryOf(100, 101, 99), summaryOf(80, 81, 79), verdictRegressed},
		{"higher is better, rose", higher, 0.10, summaryOf(100, 101, 99), summaryOf(120, 121, 119), verdictImproved},
		{"noisy, overlapping, worse median", lower, 0.10, summaryOf(8, 10, 12, 9, 11), summaryOf(9, 11.5, 14, 10, 12), verdictUnresolved},
		{"noisy, overlapping, same median", lower, 0.10, summaryOf(8, 10, 12, 9, 11), summaryOf(8.1, 10, 12.2, 9, 11), verdictUnresolved},
		{"noisy but fully separated", lower, 0.10, summaryOf(8, 10, 12, 9, 11), summaryOf(20, 24, 28, 22, 26), verdictRegressed},
		{"noisy but every run better", lower, 0.10, summaryOf(8, 10, 12, 9, 11), summaryOf(3, 4, 5, 3.5, 4.5), verdictImproved},
		{"single runs compare on the bound alone", lower, 0.03, summaryOf(100), summaryOf(104), verdictRegressed},
		{"single runs inside the bound", lower, 0.03, summaryOf(100), summaryOf(102), verdictUnchanged},
	} {
		if got := verdict(c.better, c.bound, c.old, c.neu); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(edit func(*suiteFile)) string {
		f := &suiteFile{Schema: suiteSchema, Kind: "end_to_end", NProc: 2, Seed: 1, Seconds: 10, Runs: 3}
		for _, name := range workloadNames {
			wl := suiteWorkload{Name: name, Digest: strings.Repeat("ab", 32), Attempted: 300, Correct: true, Metrics: map[string]suiteMetric{}}
			for _, d := range endToEnd {
				wl.Metrics[d.Name] = suiteMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summaryOf(100, 100.5, 99.5)}
			}
			f.Workloads = append(f.Workloads, wl)
		}
		if edit != nil {
			edit(f)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSONFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(nil)

	var out bytes.Buffer
	regressed, err := compareFiles(base, base, &out)
	if err != nil || regressed {
		t.Fatalf("self-compare: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if rows := strings.Count(out.String(), verdictUnchanged); rows != len(workloadNames)*len(endToEnd) {
		t.Fatalf("self-compare: %d unchanged rows, want %d\n%s", rows, len(workloadNames)*len(endToEnd), out.String())
	}
	if realMain([]string{"-compare", base, base}, io.Discard, io.Discard) != 0 {
		t.Fatal("vcbench -compare of a file against itself must exit 0")
	}

	for name, edit := range map[string]func(*suiteFile){
		"metric past its bound": func(f *suiteFile) {
			m := f.Workloads[2].Metrics["alloc_kb_per_op"]
			m.summary = summaryOf(104, 104.5, 103.5) // bound is 3%
			f.Workloads[2].Metrics["alloc_kb_per_op"] = m
		},
		"more failed ops":  func(f *suiteFile) { f.Workloads[0].Failed = 3 },
		"different digest": func(f *suiteFile) { f.Workloads[4].Digest = strings.Repeat("cd", 32) },
	} {
		edited := mk(edit)
		out.Reset()
		regressed, err := compareFiles(base, edited, &out)
		if err != nil || !regressed {
			t.Errorf("%s: regressed=%v err=%v\n%s", name, regressed, err, out.String())
		}
		if realMain([]string{"-compare", base, edited}, io.Discard, io.Discard) != 1 {
			t.Errorf("%s: vcbench -compare must exit 1", name)
		}
	}
}

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSON pins the driver's copy of the tables to the code's
// (-update rewrites it).
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, name := range workloadNames {
		want.Workloads = append(want.Workloads, benchWorkload{Name: name, Why: workloadWhy[name]})
	}
	for _, d := range endToEnd {
		b := d.Bound
		want.EndToEnd = append(want.EndToEnd, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *updateBenchmarkJSON {
		if err := writeJSONFile(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json disagrees with the tables in metrics.go/suite.go; run go test ./bench -run TestBenchmarkJSON -update")
	}
	for _, wl := range want.Workloads {
		if wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", wl.Name, len(wl.Why))
		}
	}
}

// TestShortSmoke runs all six workloads end to end at ~1/50 scale. The
// traced serve_warm run loops stat_grid, replay_grid, gate_mix and
// live_ladder itself (as layer probes, with every output check and,
// on seed 1, the digest comparison) and climbs the cost ladder; the
// two serving workloads it does not probe run untraced first.
func TestShortSmoke(t *testing.T) {
	ctx := context.Background()
	scratch := t.TempDir()
	for _, name := range []string{"serve_cold", "serve_warm"} {
		rep, err := runWorkload(ctx, runConfig{workload: name, seed: digestSeed, seconds: runSeconds, short: true, scratch: scratch}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, rep, endToEnd)
	}
	var log bytes.Buffer
	rep, err := runWorkload(ctx, runConfig{workload: "serve_warm", seed: digestSeed, seconds: runSeconds, short: true, trace: true, scratch: scratch}, &log)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, perLayer)
	if rep.Metrics["live.deadline_misses"] != 0 || rep.Metrics["cluster.failovers"] != 0 || rep.Metrics["harness.cellcache_hits"] != 0 {
		t.Errorf("counts that must be zero: %v misses, %v failovers, %v stat-grid hits",
			rep.Metrics["live.deadline_misses"], rep.Metrics["cluster.failovers"], rep.Metrics["harness.cellcache_hits"])
	}
	if rep.Metrics["service.cached_at_submit_pct"] != 100 {
		t.Errorf("serve_warm cached at submit %v%%, want 100", rep.Metrics["service.cached_at_submit_pct"])
	}
	// The ladder reconciles by construction.
	sum := rep.Metrics["encoders.counted_ms"] + rep.Metrics["bpred.replay_ms"] + rep.Metrics["cache.replay_ms"] + rep.Metrics["trace.sink_dispatch_ms"]
	if math.Abs(sum-rep.Metrics["perf.stat_ms"]) > 1e-6 {
		t.Errorf("ladder does not reconcile: %v vs perf.stat_ms %v", sum, rep.Metrics["perf.stat_ms"])
	}
	for _, want := range []string{"layer-tax table", "serving tower", "self-time table", "service.fetch"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("traced run log lacks %q", want)
		}
	}
	for _, f := range []string{"serve_warm.trace.json", "serve_warm.selftime.txt"} {
		if _, err := os.Stat(filepath.Join(scratch, f)); err != nil {
			t.Error(err)
		}
	}
}

func checkReport(t *testing.T, rep *runReport, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
	}
	var stdout bytes.Buffer
	if code := emit(rep, &stdout, io.Discard); code != 0 {
		t.Errorf("%s: emit exit %d", rep.Workload, code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last stdout line is not JSON: %v", rep.Workload, err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("%s: result line keys %v", rep.Workload, last)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil || len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the result line, want %d (err %v)", rep.Workload, len(metrics), len(defs), err)
	}
	back, err := parseDetail(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil || back.Workload != rep.Workload || !reflect.DeepEqual(back.PassDigests, rep.PassDigests) {
		t.Errorf("%s: detail line does not round-trip: %v", rep.Workload, err)
	}
}

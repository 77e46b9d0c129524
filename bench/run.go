package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the default measuring
// time of one run.
const runSeconds = 15

// workloadNames is the fixed suite, in report order.
var workloadNames = []string{"stat_grid", "replay_grid", "serve_cold", "serve_warm", "gate_mix", "live_ladder"}

func newWorkload(name string, p params) (workload, error) {
	switch name {
	case "stat_grid":
		return &statGrid{params: p}, nil
	case "replay_grid":
		return &replayGrid{params: p}, nil
	case "serve_cold":
		return &serveCold{served: served{params: p, layer: "service", frames: 4, div: 16}}, nil
	case "serve_warm":
		return &serveWarm{served: served{params: p, layer: "service", frames: 2, div: 32}}, nil
	case "gate_mix":
		return &gateMix{served: served{params: p, layer: "cluster", frames: 2, div: 32}}, nil
	case "live_ladder":
		return &liveLadder{params: p}, nil
	}
	return nil, fmt.Errorf("vcbench: unknown workload %q (want one of %v)", name, workloadNames)
}

// params is what every workload is built from.
type params struct {
	seed    uint64
	short   bool   // ~1/50 scale: the smoke test and the other workloads' layer probes
	clients int    // closed-loop width C
	scratch string // directory for stores and trace files
	// updating skips the digest comparison: the run exists to produce
	// the digests -update-digests writes.
	updating bool
}

// layerOwners are the workloads whose own loop measures per-layer
// rows. A traced run of any other workload fills those rows from the
// owner's -short loop, so every traced run reports every row from a
// real measurement.
var layerOwners = []string{"stat_grid", "replay_grid", "serve_cold", "gate_mix", "live_ladder"}

// rowRules are a workload's departures from the default definitions of
// the end-to-end rows, each made on measurement.
type rowRules struct {
	// perPassTail takes the gated latency_p95_ms per pass although a
	// pass has too few ops for p95. A tail pooled over the run is made of
	// the ops a host stall hit, which a median over passes cannot
	// protect; on live_ladder two sets of runs of unchanged code spread
	// 18% and 34% against the 25% bound. Per pass it reads p75 there and
	// moves no further than latency_p50_ms does. The pooled p95 is the
	// layer row client.latency_p95_ms.
	perPassTail bool
	// rawTail leaves latency_p95_ms undivided by the run's host factor
	// (hostref.go). gate_mix's upper quantiles are sums of the router's
	// poll intervals, not CPU time: raw, p90 and p95 repeat within 2–4%
	// whatever the host does, and dividing them by the factor only adds
	// the factor's own variation (a set of ten read 21% that way).
	rawTail bool
}

var workloadRules = map[string]rowRules{
	"live_ladder": {perPassTail: true},
	"gate_mix":    {rawTail: true},
}

// runConfig is one run of one workload in this process.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	scratch  string
}

// runReport is what one run found. Metrics holds the end-to-end rows
// of an untraced run or the per-layer rows of a traced one.
type runReport struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Short       bool               `json:"short"`
	Traced      bool               `json:"traced"`
	NProc       int                `json:"nproc"`
	Clients     int                `json:"clients"`
	Go          string             `json:"go"`
	Passes      int                `json:"passes"`
	LoopSeconds float64            `json:"loop_seconds"` // what the timed passes took, rendezvous excluded
	HostFactor  float64            `json:"host_factor"`  // reference kernel time over nominal; host-time rows are scaled by it
	PassDigests []string           `json:"pass_digests"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Problems    []string           `json:"problems,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

func (r *runReport) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setupRepeats is how often a full run builds its environment; setup_s
// is the median, because a single boot is short and I/O-touched.
const setupRepeats = 3

// loopOutcome is one prepared-and-measured loop of a workload.
type loopOutcome struct {
	w      workload
	res    *loopResult
	setupS float64
}

// defaultPasses is the pass count of an untraced run: one at -short
// scale, else what -seconds buys.
func defaultPasses(w workload, p params, seconds float64) int {
	if p.short {
		return 1
	}
	return passCount(w, seconds)
}

// measure plans, sets up, warms and loops one workload, then runs its
// output checks into rep. passes < 1 means defaultPasses. The
// environment stays up until teardown.
func measure(ctx context.Context, name string, p params, passes int, seconds float64, tr *tracer, rep *runReport) (*loopOutcome, error) {
	w, err := newWorkload(name, p)
	if err != nil {
		return nil, err
	}
	if passes < 1 {
		passes = defaultPasses(w, p, seconds)
	}
	units := w.plan(passes)

	repeats := setupRepeats
	if p.short {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
		}
		h := tr.begin(0, name+".setup", 0, -1)
		t0 := time.Now()
		err := w.setup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(0, h)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
	}
	clients := newClients(p.clients, tr)
	defer closeClients(clients)
	if err := w.warmup(ctx); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}

	res := runLoop(ctx, w, clients, units, seconds)
	if err := res.firstError(); err != nil {
		rep.problem("%s: %v", name, err)
	}
	if err := w.verify(ctx); err != nil {
		rep.problem("%s: %v", name, err)
	}
	if err := checkDigests(name, p, res.passDigests()); err != nil {
		rep.problem("%v", err)
	}
	return &loopOutcome{w: w, res: res, setupS: median(setups)}, nil
}

// runWorkload is the whole of one child run.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (*runReport, error) {
	p := params{seed: cfg.seed, short: cfg.short, clients: clientCount(), scratch: cfg.scratch}
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, err
	}
	rep := &runReport{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Short: cfg.short, Traced: cfg.trace,
		NProc: runtime.NumCPU(), Clients: p.clients, Go: runtime.Version(), Correct: true,
	}
	if !cfg.trace {
		out, err := measure(ctx, cfg.workload, p, 0, cfg.seconds, nil, rep)
		if err != nil {
			return nil, err
		}
		defer out.w.teardown()
		rep.fill(out.res)
		if rep.Metrics, err = endToEndMetrics(out.res, p.clients, out.setupS, workloadRules[cfg.workload]); err != nil {
			return nil, err
		}
		return rep, nil
	}
	return rep, runTraced(ctx, cfg, p, rep, log)
}

func (r *runReport) fill(res *loopResult) {
	r.Passes = len(res.ops)
	r.LoopSeconds = res.wall().Seconds()
	r.HostFactor = res.hostFactor()
	r.PassDigests = res.passDigests()
	r.Attempted, r.Failed = res.counts()
}

// runTraced measures the same op list twice — spans off, then on — so
// the tracing overhead is a like-for-like ratio, reads the workload's
// own layer rows off the traced loop, fills the other owners' rows
// from their -short loops, runs the cost ladder, and writes the Chrome
// trace and self-time table.
func runTraced(ctx context.Context, cfg runConfig, p params, rep *runReport, log io.Writer) error {
	w, err := newWorkload(cfg.workload, p)
	if err != nil {
		return err
	}
	// Half the untraced run's passes, each measured twice.
	passes := defaultPasses(w, p, cfg.seconds) / 2
	if passes < 1 {
		passes = 1
	}
	plainRun, err := measure(ctx, cfg.workload, p, passes, cfg.seconds, nil, rep)
	if err != nil {
		return err
	}
	plainRun.w.teardown()

	tr := newTracer(p.clients)
	traced, err := measure(ctx, cfg.workload, p, passes, cfg.seconds, tr, rep)
	if err != nil {
		return err
	}
	rep.fill(traced.res)
	layers := map[string]float64{}
	traced.w.layers(traced.res, layers)
	traced.w.teardown()

	rate := func(o *loopOutcome) float64 {
		n, _ := o.res.counts()
		return float64(n) / o.res.wall().Seconds()
	}
	layers["bench.trace_overhead_pct"] = 100 * (rate(plainRun) - rate(traced)) / rate(plainRun)
	layers["bench.host_factor"] = traced.res.hostFactor()
	// The pooled tail the gated latency_p95_ms row gave up for per-pass
	// medians: both loops ran the same op list, so together they have
	// an untraced run's sample count.
	pooled := append(plainRun.res.latencies(), traced.res.latencies()...)
	sort.Float64s(pooled)
	layers["client.latency_p95_ms"] = tailOf(pooled)

	probe := p
	probe.short = true
	for _, owner := range layerOwners {
		if owner == cfg.workload || (owner == "serve_cold" && cfg.workload == "serve_warm") {
			continue
		}
		out, err := measure(ctx, owner, probe, 1, cfg.seconds, newTracer(p.clients), rep)
		if err != nil {
			return err
		}
		owned := map[string]float64{}
		out.w.layers(out.res, owned)
		out.w.teardown()
		for k, v := range owned {
			if _, mine := layers[k]; !mine {
				layers[k] = v
			}
		}
	}

	if err := runLadder(ctx, p, layers, log); err != nil {
		rep.problem("%v", err)
	}
	rep.Metrics = layers

	rows := selfTimes(tr.lanes)
	fmt.Fprintf(log, "self-time table (%s, %d passes)\n", cfg.workload, passes)
	writeSelfTable(log, rows)
	return writeTraceFiles(cfg, tr, rows)
}

func writeTraceFiles(cfg runConfig, tr *tracer, rows []selfRow) error {
	stem := filepath.Join(cfg.scratch, cfg.workload)
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, tr.lanes); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(stem + ".selftime.txt")
	if err != nil {
		return err
	}
	writeSelfTable(t, rows)
	return t.Close()
}

// ---------------------------------------------------------------------
// digests

//go:embed testdata/digests.json
var digestsJSON []byte

// digestFile pins, for seed 1, the digest of every pass of every
// workload at both scales. A run compares the passes it completed; a
// run longer than the recorded list compares the prefix.
type digestFile struct {
	Seed  uint64              `json:"seed"`
	Full  map[string][]string `json:"full"`
	Short map[string][]string `json:"short"`
}

const digestSeed = 1

func loadDigests() (*digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return &d, nil
}

func checkDigests(name string, p params, got []string) error {
	if p.seed != digestSeed || p.updating {
		return nil // other seeds print their digests for cross-commit comparison
	}
	d, err := loadDigests()
	if err != nil {
		return err
	}
	want := d.Full[name]
	if p.short {
		want = d.Short[name]
	}
	for i := range got {
		if i < len(want) && got[i] != want[i] {
			return fmt.Errorf("%s pass %d: digest %s, testdata/digests.json has %s (-update-digests regenerates)", name, i, got[i], want[i])
		}
	}
	return nil
}

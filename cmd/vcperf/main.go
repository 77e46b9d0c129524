// Command vcperf is the live telemetry console for vcprofd. It speaks
// only the daemon's public HTTP surface — Prometheus text exposition on
// /metrics, JSON top-down snapshots, the ring-buffer time series and
// the folded-stack profile — so everything it shows is equally
// available to any scraper.
//
//	vcperf top                        # live top-down + MPKIs + latency, refreshed
//	vcperf top -once -assert          # one snapshot; exit 1 unless invariants hold
//	vcperf top -job <id>              # stream one job's top-down while it runs
//	vcperf series -window 32          # recent gauge samples from the ring buffer
//	vcperf flame -o out.folded        # folded stacks (pipe to flamegraph.pl)
//	vcperf trace j-0123abcd -o t.json # merged cluster Chrome trace for one job
//	vcperf slo -assert                # live SLO burn rates; exit 1 over budget
//
// trace and slo speak to a gate (vcprofd -shards) or a single daemon
// alike — both serve /v1/cluster/trace/{id} and /v1/slo; the daemon's
// answer is the one-shard degenerate case.
//
// Exit codes: 0 ok, 1 assertion failed (-assert), 2 usage, 3 the
// daemon could not be reached or answered malformed data.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "top":
		return cmdTop(args[1:])
	case "series":
		return cmdSeries(args[1:])
	case "flame":
		return cmdFlame(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "slo":
		return cmdSlo(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "vcperf: unknown subcommand %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: vcperf <top|series|flame|trace|slo> [flags]
  top     live top-down fractions, MPKIs and latency histograms
  series  dump the daemon's ring-buffer gauge time series
  flame   fetch the folded-stack profile (flamegraph.pl input)
  trace   fetch one merged cluster Chrome trace by id (j-…/s-…)
  slo     live SLO burn rates; -assert gates on budgets
`)
}

// daemon builds the wire-protocol client for -addr: short timeout,
// since everything vcperf asks for is served from memory.
func daemon(addr string) service.Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return service.Client{Base: addr, HTTP: &http.Client{Timeout: 10 * time.Second}}
}

// ---- top ----

func cmdTop(args []string) int {
	fs := flag.NewFlagSet("vcperf top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "vcprofd address (host:port)")
	once := fs.Bool("once", false, "print one snapshot and exit instead of refreshing")
	assert := fs.Bool("assert", false, "check telemetry invariants; exit 1 on violation")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval in live mode")
	jobID := fs.String("job", "", "stream this job's top-down instead of the process aggregate")
	fs.Parse(args)
	d := daemon(*addr)

	for {
		snap, err := snapshotTop(d, *jobID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcperf:", err)
			return 3
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: cheap full-screen refresh
		}
		fmt.Print(snap.render())
		if *assert {
			if msgs := snap.check(); len(msgs) > 0 {
				for _, m := range msgs {
					fmt.Fprintln(os.Stderr, "vcperf: ASSERT FAILED:", m)
				}
				return 1
			}
			fmt.Println("asserts ok")
		}
		if *once {
			return 0
		}
		time.Sleep(*interval)
	}
}

// topSnapshot is one fetched view: the parsed exposition plus the
// JSON top-down, taken back to back.
type topSnapshot struct {
	td      service.Topdown
	scalars map[string]float64
	hists   map[string]obs.HistogramValue
}

func snapshotTop(d service.Client, jobID string) (*topSnapshot, error) {
	ctx := context.Background()
	td, err := d.Topdown(ctx, jobID)
	if err != nil {
		return nil, err
	}
	parsed, err := d.Metrics(ctx, true)
	if err != nil {
		return nil, err
	}
	return &topSnapshot{td: td, scalars: parsed.Scalars, hists: parsed.Hists}, nil
}

func (s *topSnapshot) render() string {
	var b strings.Builder
	if s.td.ID != "" {
		fmt.Fprintf(&b, "job %s (%s)\n", s.td.ID, s.td.State)
	}
	fmt.Fprintf(&b, "jobs  submitted %.0f  completed %.0f  failed %.0f  running %.0f  queue %.0f  engine-inflight %.0f\n",
		s.scalars["vcprof_svc_jobs_submitted"], s.scalars["vcprof_svc_jobs_completed"],
		s.scalars["vcprof_svc_jobs_failed"], s.scalars["vcprof_svc_jobs_running"],
		s.scalars["vcprof_svc_queue_depth"], s.scalars["vcprof_svc_engine_inflight"])
	fmt.Fprintf(&b, "store %.0f objects  cells %.0f entries\n",
		s.scalars["vcprof_svc_store_objects"], s.scalars["vcprof_svc_cells_entries"])

	b.WriteString("top-down (level 1, streaming)")
	fmt.Fprintf(&b, "  slots %d  producers %d  flushes %d  commits %d\n",
		s.td.TotalSlots, s.td.Producers, s.td.Flushes, s.td.Commits)
	if s.td.TotalSlots == 0 {
		b.WriteString("  (no slots observed yet)\n")
	} else {
		for _, row := range []struct {
			name string
			frac float64
		}{
			{"retiring", s.td.Retiring}, {"bad-spec", s.td.BadSpec},
			{"frontend", s.td.Frontend}, {"backend", s.td.Backend},
		} {
			bar := strings.Repeat("#", int(row.frac*40+0.5))
			fmt.Fprintf(&b, "  %-9s %6.2f%%  %s\n", row.name, 100*row.frac, bar)
		}
	}

	if insts := s.scalars["vcprof_perf_stat_instructions"]; insts > 0 {
		mpki := func(name string) float64 { return 1000 * s.scalars[name] / insts }
		fmt.Fprintf(&b, "MPKI (per perf.stat kilo-instruction)  branch %.2f  l1d %.2f  l2 %.2f  llc %.2f\n",
			mpki("vcprof_perf_stat_branch_misses"), mpki("vcprof_uarch_cache_l1d_misses"),
			mpki("vcprof_uarch_cache_l2_misses"), mpki("vcprof_uarch_cache_llc_misses"))
	}
	if ops := s.scalars["vcprof_uarch_pipeline_ops"]; ops > 0 {
		fmt.Fprintf(&b, "pipeline replayer  mispredict MPKI %.2f  IPC %.2f\n",
			1000*s.scalars["vcprof_uarch_pipeline_mispredicts"]/ops,
			s.scalars["vcprof_uarch_pipeline_ops"]/nonZero(s.scalars["vcprof_uarch_pipeline_cycles"]))
	}
	for _, name := range []string{"vcprof_svc_job_latency_ms", "vcprof_svc_queue_wait_ms"} {
		if h, ok := s.hists[name]; ok && h.Count > 0 {
			b.WriteString(telemetry.RenderHistogram(h, "ms"))
		}
	}
	return b.String()
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// check enforces the invariants the smoke test pins mid-run: the four
// level-1 fractions partition the slot budget (sum 1 ± 0.001 with a
// non-zero denominator), and the latency histogram's quantiles are
// monotone (p99 ≥ p50).
func (s *topSnapshot) check() []string {
	var msgs []string
	sum := s.td.Retiring + s.td.BadSpec + s.td.Frontend + s.td.Backend
	if s.td.TotalSlots == 0 {
		msgs = append(msgs, "top-down total_slots is 0 (no producer flushed yet)")
	} else if sum < 0.999 || sum > 1.001 {
		msgs = append(msgs, fmt.Sprintf("top-down fractions sum to %.6f, want 1.0±0.001", sum))
	}
	if s.td.Retiring <= 0 && s.td.TotalSlots > 0 {
		msgs = append(msgs, "retiring fraction is zero with slots observed")
	}
	if h, ok := s.hists["vcprof_svc_job_latency_ms"]; ok && h.Count > 0 {
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if p99 < p50 {
			msgs = append(msgs, fmt.Sprintf("latency p99 %d < p50 %d", p99, p50))
		}
	} else {
		msgs = append(msgs, "no job latency observations")
	}
	return msgs
}

// ---- series ----

func cmdSeries(args []string) int {
	fs := flag.NewFlagSet("vcperf series", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "vcprofd address (host:port)")
	window := fs.Int("window", 0, "most recent samples to fetch (0 = everything retained)")
	raw := fs.Bool("raw", false, "dump the JSON window verbatim")
	fs.Parse(args)

	body, err := daemon(*addr).Get(context.Background(), "/v1/telemetry/series?window="+strconv.Itoa(*window))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	if *raw {
		os.Stdout.Write(body)
		return 0
	}
	var w telemetry.Window
	if err := json.Unmarshal(body, &w); err != nil {
		fmt.Fprintln(os.Stderr, "vcperf: series JSON:", err)
		return 3
	}
	if len(w.TimesMS) == 0 {
		fmt.Println("series: no samples yet")
		return 0
	}
	span := time.Duration(w.TimesMS[len(w.TimesMS)-1]-w.TimesMS[0]) * time.Millisecond
	fmt.Printf("series: %d samples over %s\n", len(w.TimesMS), span)
	// One row per gauge: the summary reads naturally even with many
	// gauges, where a column-per-gauge table would wrap.
	names := append([]string(nil), w.Names...)
	sort.Strings(names)
	col := make(map[string]int, len(w.Names))
	for i, n := range w.Names {
		col[n] = i
	}
	for _, name := range names {
		c := col[name]
		first, last := w.Samples[0][c], w.Samples[len(w.Samples)-1][c]
		min, max := first, first
		for _, row := range w.Samples {
			if row[c] < min {
				min = row[c]
			}
			if row[c] > max {
				max = row[c]
			}
		}
		fmt.Printf("  %-36s first %-12g last %-12g min %-12g max %g\n", name, first, last, min, max)
	}
	return 0
}

// ---- flame ----

func cmdFlame(args []string) int {
	fs := flag.NewFlagSet("vcperf flame", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "vcprofd address (host:port)")
	out := fs.String("o", "", "write folded stacks to this file (default stdout)")
	fs.Parse(args)

	body, err := daemon(*addr).Get(context.Background(), "/debug/profile?fold=1")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	if *out == "" {
		os.Stdout.Write(body)
		return 0
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	fmt.Fprintf(os.Stderr, "folded stacks → %s (feed to flamegraph.pl)\n", *out)
	return 0
}

// ---- trace ----

func cmdTrace(args []string) int {
	fs := flag.NewFlagSet("vcperf trace", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "vcprofd daemon or gate address (host:port)")
	det := fs.Bool("det", false, "deterministic view only (?volatile=0): byte-stable across topologies")
	out := fs.String("o", "", "write the Chrome trace to this file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "vcperf trace: exactly one trace id required (j-… for jobs, s-… for sessions)")
		return 2
	}
	id := fs.Arg(0)
	path := "/v1/cluster/trace/" + id
	if *det {
		path += "?volatile=0"
	}
	body, err := daemon(*addr).Get(context.Background(), path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	if *out == "" {
		os.Stdout.Write(body)
		return 0
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	fmt.Fprintf(os.Stderr, "merged trace %s → %s (open in a Chrome trace viewer)\n", id, *out)
	return 0
}

// ---- slo ----

func cmdSlo(args []string) int {
	fs := flag.NewFlagSet("vcperf slo", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8791", "vcprofd daemon or gate address (host:port)")
	assert := fs.Bool("assert", false, "exit 1 when a burn rate exceeds its budget")
	maxMiss := fs.Uint64("max-miss-ppm", 0, "deadline-miss burn budget, misses per million frames")
	maxDegrade := fs.Uint64("max-degrade-ppm", 0, "degrade-step burn budget, steps per million GOPs")
	fs.Parse(args)

	rep, err := daemon(*addr).SLO(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcperf:", err)
		return 3
	}
	fmt.Printf("sessions %d (resumed %d)  frames %d  gops %d  dropped %d\n",
		rep.Sessions, rep.Resumes, rep.Frames, rep.GOPs, rep.Dropped)
	fmt.Printf("deadline misses %d  burn %d ppm (budget %d)\n", rep.Misses, rep.MissBurnPPM, *maxMiss)
	fmt.Printf("degrade steps   %d  burn %d ppm (budget %d)\n", rep.Degrades, rep.DegradeBurnPPM, *maxDegrade)
	if *assert {
		if msgs := rep.Check(*maxMiss, *maxDegrade); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "vcperf: SLO ASSERT FAILED:", m)
			}
			return 1
		}
		fmt.Println("slo ok")
	}
	return 0
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// workloadWhy records why each workload is in the suite; BENCHMARK.json
// and the README carry the same lines.
var workloadWhy = map[string]string{
	"stat_grid":   "perf.Stat cells over the fig4-7 grid: live TAGE and cache sinks do ~80% of the work, the codec <=18%",
	"replay_grid": "offline replay: window recording, the out-of-order core model and the nine-predictor zoo, the other use of bpred",
	"serve_cold":  "distinct encode jobs over loopback HTTP into a fresh store: encoders, trace counting, sched and Store.Put; bpred/cache idle",
	"serve_warm":  "requests cycling over primed keys: compute bypassed, so HTTP, admission, job table and Store.Get are the whole cost",
	"gate_mix":    "cluster router over 2 in-process shards, R=2, every spec resubmitted: ring routing, nested polling, hedging, replica PUTs, gate LRU",
	"live_ladder": "live sessions fed GOP by GOP on a shared sched.Pool with ladder sharing and preset switches: the encoders' third use",
}

const suiteSchema = "vcbench/1"

// suiteFile is the fixed-schema output of a suite run: one file of
// end-to-end rows, one of per-layer rows.
type suiteFile struct {
	Schema    string          `json:"schema"`
	Kind      string          `json:"kind"` // "end_to_end" or "per_layer"
	NProc     int             `json:"nproc"`
	Clients   int             `json:"clients"`
	Go        string          `json:"go"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Runs      int             `json:"runs"`
	Short     bool            `json:"short"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Digest    string `json:"digest"`
	Passes    int    `json:"passes"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// HostFactors is each run's host factor (hostref.go), in run order:
	// what the host-time values of that run were scaled by.
	HostFactors []float64              `json:"host_factors"`
	Metrics     map[string]suiteMetric `json:"metrics"`
}

type suiteMetric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	summary
}

// suite is the parent: it re-executes this binary once per workload
// run, so every run gets a fresh heap, fresh obs counters and its own
// ru_maxrss.
type suite struct {
	workloads []string
	seed      uint64
	seconds   float64
	runs      int
	short     bool
	trace     int // -1 both, 0 untraced only, 1 traced only
	out       string
}

func (s *suite) run(ctx context.Context, stdout, stderr io.Writer) error {
	if len(s.workloads) == 0 {
		s.workloads = workloadNames
	}
	if s.runs < 1 {
		s.runs = 1
	}
	for _, name := range s.workloads {
		if _, err := newWorkload(name, params{}); err != nil {
			return err
		}
	}
	e2e := s.newFile("end_to_end")
	layers := s.newFile("per_layer")
	bad := false
	for _, name := range s.workloads {
		if s.trace != 1 {
			var reps []*runReport
			for i := 0; i < s.runs; i++ {
				rep, err := s.child(ctx, name, 0, stderr)
				if err != nil {
					return err
				}
				fmt.Fprintf(stderr, "%s run %d/%d: %d ops, %d failed, correct=%v\n", name, i+1, s.runs, rep.Attempted, rep.Failed, rep.Correct)
				reps = append(reps, rep)
			}
			wl := fold(name, endToEnd, reps)
			bad = bad || !wl.Correct
			e2e.stamp(reps[0])
			e2e.Workloads = append(e2e.Workloads, wl)
		}
		if s.trace != 0 {
			rep, err := s.child(ctx, name, 1, stderr)
			if err != nil {
				return err
			}
			wl := fold(name, perLayer, []*runReport{rep})
			bad = bad || !wl.Correct
			layers.stamp(rep)
			layers.Workloads = append(layers.Workloads, wl)
		}
	}
	if s.trace != 1 {
		printSummary(stdout, e2e)
		if s.out != "" {
			if err := writeJSONFile(s.out, e2e); err != nil {
				return err
			}
		}
	}
	if s.trace != 0 && s.out != "" {
		if err := writeJSONFile(strings.TrimSuffix(s.out, ".json")+".layers.json", layers); err != nil {
			return err
		}
	}
	if bad {
		return fmt.Errorf("a correctness check failed (see INCORRECT lines above)")
	}
	return nil
}

func (s *suite) newFile(kind string) *suiteFile {
	return &suiteFile{Schema: suiteSchema, Kind: kind, Seed: s.seed, Seconds: s.seconds, Runs: s.runs, Short: s.short}
}

func (f *suiteFile) stamp(rep *runReport) {
	f.NProc, f.Clients, f.Go = rep.NProc, rep.Clients, rep.Go
}

// child runs one workload once in a fresh process and parses its
// detail line. The child's stderr (tables, INCORRECT lines) passes
// through.
func (s *suite) child(ctx context.Context, name string, trace int, stderr io.Writer) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds), "-trace", fmt.Sprint(trace)}
	if s.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	rep, err := parseDetail(&out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil // a child that exited 1 on a correctness failure still reports
}

func parseDetail(r io.Reader) (*runReport, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var rep runReport
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("child printed no %q line", strings.TrimSpace(detailPrefix))
}

// fold merges the runs of one workload into its file entry. Runs of
// one seed must agree on every digest; disagreement is a correctness
// failure in itself.
func fold(name string, defs []metricDef, reps []*runReport) suiteWorkload {
	first := reps[0]
	wl := suiteWorkload{
		Name: name, Why: workloadWhy[name],
		Digest: foldDigests(first.PassDigests), Passes: first.Passes,
		Correct: true, Metrics: map[string]suiteMetric{},
	}
	for _, r := range reps {
		wl.Attempted += r.Attempted
		wl.Failed += r.Failed
		wl.HostFactors = append(wl.HostFactors, r.HostFactor)
		if !r.Correct || foldDigests(r.PassDigests) != wl.Digest {
			wl.Correct = false
		}
	}
	for _, d := range defs {
		var vals []float64
		for _, r := range reps {
			if v, ok := r.Metrics[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		wl.Metrics[d.Name] = suiteMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Moves: d.Moves, summary: summarize(vals)}
	}
	return wl
}

func foldDigests(passes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(passes, "\n")))
	return hex.EncodeToString(sum[:])
}

func printSummary(w io.Writer, f *suiteFile) {
	fmt.Fprintf(w, "vcbench: nproc=%d clients=%d %s seed=%d seconds=%g runs=%d\n", f.NProc, f.Clients, f.Go, f.Seed, f.Seconds, f.Runs)
	for _, wl := range f.Workloads {
		fmt.Fprintf(w, "%s  digest %s  passes %d  ops %d  failed %d\n", wl.Name, wl.Digest[:16], wl.Passes, wl.Attempted, wl.Failed)
		for _, d := range endToEnd {
			m := wl.Metrics[d.Name]
			fmt.Fprintf(w, "  %-18s %14.4f %-8s (q1 %.4f, q3 %.4f, spread %.1f%% of bound %.0f%%)\n",
				d.Name, m.Median, m.Unit, m.Q1, m.Q3, 100*m.spread(), 100*m.Bound)
		}
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateDigests reruns every workload at both scales with seed 1 and
// rewrites testdata/digests.json. Run it from the repository root.
func updateDigests(ctx context.Context, scratch string, log io.Writer) error {
	d := digestFile{Seed: digestSeed, Full: map[string][]string{}, Short: map[string][]string{}}
	for _, name := range workloadNames {
		for _, short := range []bool{false, true} {
			p := params{seed: digestSeed, short: short, clients: clientCount(), scratch: scratch, updating: true}
			if err := os.MkdirAll(scratch, 0o755); err != nil {
				return err
			}
			rep := &runReport{Correct: true}
			out, err := measure(ctx, name, p, 0, runSeconds, nil, rep)
			if err != nil {
				return err
			}
			out.w.teardown()
			if !rep.Correct {
				return fmt.Errorf("%s: refusing to record digests of an incorrect run: %v", name, rep.Problems)
			}
			if short {
				d.Short[name] = out.res.passDigests()
			} else {
				d.Full[name] = out.res.passDigests()
			}
			fmt.Fprintf(log, "%s short=%v: %d passes\n", name, short, len(out.res.ops))
		}
	}
	return writeJSONFile(filepath.Join("bench", "testdata", "digests.json"), d)
}

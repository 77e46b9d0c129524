// Package harness defines the paper's experiments: one runner per table
// and figure, a workload-scale configuration that shrinks the paper's
// hours-long encodes to seconds while preserving shapes, and text/CSV
// rendering for the results. cmd/repro and the repository benchmarks are
// thin wrappers around this package.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vcprof/internal/encoders"
	"vcprof/internal/uarch/machine"
	"vcprof/internal/video"
)

// Scale controls how much of the paper's workload each experiment runs.
// The paper encodes 5-second clips at native resolution for hours; the
// default scale encodes a few frames at 1/16 linear resolution so the
// whole suite finishes in minutes. Shapes, orderings and ratios are the
// reproduction target, not absolute magnitudes.
type Scale struct {
	// Frames per clip for characterization experiments.
	Frames int
	// ScaleDiv divides clip resolution linearly.
	ScaleDiv int
	// Clips restricts the vbench set (nil = all 15).
	Clips []string
	// CRFs is the sweep grid for the AV1-scale encoders (x264/x265
	// points are mapped proportionally into their 0–51 range).
	CRFs []int
	// WindowOps bounds recorded micro-op windows (CBP / pipeline replay).
	WindowOps uint64
	// ThreadFrames/ThreadScaleDiv size the thread-scaling runs, which
	// need more work per frame for stable wall-clock measurement.
	ThreadFrames   int
	ThreadScaleDiv int
	// Threads is the thread sweep grid.
	Threads []int
}

// DefaultScale runs every clip at 1/16 resolution.
func DefaultScale() Scale {
	return Scale{
		Frames:         4,
		ScaleDiv:       16,
		CRFs:           []int{10, 20, 30, 40, 50, 60},
		WindowOps:      300_000,
		ThreadFrames:   12,
		ThreadScaleDiv: 4,
		Threads:        []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// QuickScale is a fast subset used by the benchmark suite and examples.
func QuickScale() Scale {
	s := DefaultScale()
	s.Clips = []string{"desktop", "game1", "hall"}
	s.CRFs = []int{10, 35, 60}
	s.WindowOps = 250_000
	s.ThreadFrames = 8
	s.ThreadScaleDiv = 5
	s.Threads = []int{1, 2, 4, 8}
	return s
}

// Validate checks the scale configuration.
func (s Scale) Validate() error {
	if s.Frames < 1 || s.ScaleDiv < 1 {
		return fmt.Errorf("harness: invalid scale frames=%d div=%d", s.Frames, s.ScaleDiv)
	}
	if len(s.CRFs) == 0 {
		return fmt.Errorf("harness: empty CRF grid")
	}
	for _, c := range s.CRFs {
		if c < 0 || c > 63 {
			return fmt.Errorf("harness: CRF %d outside AV1 range", c)
		}
	}
	for _, name := range s.Clips {
		if _, err := video.LookupClip(name); err != nil {
			return err
		}
	}
	return nil
}

// clipNames resolves the clip set.
func (s Scale) clipNames() []string {
	if len(s.Clips) > 0 {
		return s.Clips
	}
	var names []string
	for _, m := range video.Vbench() {
		names = append(names, m.Name)
	}
	return names
}

// mapCRF converts an AV1-scale CRF (0–63) into the target encoder's
// range, preserving the relative quality position.
func mapCRF(fam encoders.Family, crf int) int {
	_, hi := encoders.MustNew(fam).CRFRange()
	return crf * hi / 63
}

// midPreset returns the encoder's middle preset on its own scale, with
// the direction normalized so all encoders run comparable effort.
// For the AV1/VP9 family "preset 4" is mid; x264/x265 run preset 5.
func midPreset(fam encoders.Family) int {
	lo, hi, _ := encoders.MustNew(fam).PresetRange()
	return (lo + hi + 1) / 2
}

// Clip returns the (cached) procedural clip for a catalog name at the
// scale's characterization size.
func (s Scale) Clip(name string) (*video.Clip, error) {
	return cachedClip(context.Background(), name, s.Frames, s.ScaleDiv)
}

// cachedClip takes the clip from the process's one clip memo
// (video.Memoized) and counts the generations the harness caused.
func cachedClip(ctx context.Context, name string, frames, div int) (*video.Clip, error) {
	clip, hit, err := video.Memoized(ctx, name, frames, div)
	if !hit {
		obsClipGens.Add(1)
	}
	return clip, err
}

// ResetClipCache empties the clip memo and its counters.
func ResetClipCache() { video.ResetClipMemo() }

// The harness reports deterministic modeled wall time instead of host
// time: cycle counts (or instruction counts at a nominal IPC of 2) at
// the paper machine's clock. Host wall time would differ
// on every run and machine, breaking the golden-table suite and the
// worker-count equivalence guarantee; modeled time preserves every
// shape the paper reads from Figs. 1/2/11 because those shapes are
// instruction-count driven (the paper's central claim).

// cycleMS converts modeled cycles to milliseconds on the paper machine.
func cycleMS(cycles uint64) float64 { return float64(cycles) / machine.Xeon().ClockHz * 1e3 }

// instMS converts an instruction count to modeled milliseconds at the
// nominal IPC, for counting-only cells with no cycle model attached.
func instMS(insts uint64) float64 { return cycleMS(insts / 2) }

// Table is a rendered experiment result.
type Table struct {
	ID     string // "fig4a", "table2", ...
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns an aligned text rendering.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV returns an RFC 4180 comma-separated rendering: cells containing
// commas, quotes, CR or LF are quoted with embedded quotes doubled, so
// no cell content can corrupt the row structure.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvField(c))
	}
	b.WriteByte('\n')
}

// csvField quotes a cell per RFC 4180 when it contains a delimiter,
// quote or line break.
func csvField(f string) string {
	if !strings.ContainsAny(f, ",\"\r\n") {
		return f
	}
	return `"` + strings.ReplaceAll(f, `"`, `""`) + `"`
}

// Experiment is a runnable paper artifact. Plan lowers it to a cell
// grid plus assembly for the engine; Run (engine.go) executes it.
type Experiment struct {
	ID    string
	Title string
	Plan  func(Scale) (*Plan, error)
}

var registry = struct {
	sync.Mutex
	m map[string]Experiment
}{m: make(map[string]Experiment)}

func register(e Experiment) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry.m[e.ID] = e
}

// Lookup returns a registered experiment.
func Lookup(id string) (Experiment, error) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.m[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (use List)", id)
	}
	return e, nil
}

// List returns all experiment IDs in order.
func List() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.m))
	for _, e := range registry.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idKey(out[i].ID) < idKey(out[j].ID) })
	return out
}

// idKey orders table1 < fig1 < fig2a < ... < fig16 < ablation-*.
func idKey(id string) string {
	var kind, num, suf string
	switch {
	case strings.HasPrefix(id, "table"):
		kind, num = "0", id[5:]
	case strings.HasPrefix(id, "fig"):
		kind, num = "1", id[3:]
	default:
		return "9" + id
	}
	for len(num) > 0 && (num[len(num)-1] < '0' || num[len(num)-1] > '9') {
		suf = num[len(num)-1:] + suf
		num = num[:len(num)-1]
	}
	return fmt.Sprintf("%s%04s%s", kind, num, suf)
}

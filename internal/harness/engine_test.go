package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/memo"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/video"
)

// equivScale is a heavily reduced scale that still exercises every
// experiment: one clip, two CRF points, short windows and a trimmed
// thread grid keep the two full-suite equivalence passes fast enough
// to run under -race. Byte-equality does not need the paper's shapes,
// only a grid wide enough that the worker pool actually interleaves.
func equivScale() Scale {
	s := QuickScale()
	s.Clips = []string{"game1"}
	s.CRFs = []int{10, 60}
	s.Frames = 2
	s.WindowOps = 60_000
	s.ThreadFrames = 3
	s.ThreadScaleDiv = 8
	s.Threads = []int{1, 2, 8}
	return s
}

// renderAll flattens a report into one deterministic string: every
// table's aligned text and CSV rendering in experiment order.
func renderAll(rep *Report) string {
	var b strings.Builder
	for _, er := range rep.Results {
		for _, t := range er.Tables {
			b.WriteString(t.Render())
			b.WriteString(t.CSV())
		}
	}
	return b.String()
}

// raceSubset is what TestRunAllWorkerEquivalence renders under the race
// detector: the 20-cell counted grid that makes the pool interleave,
// and one experiment for each other cell kind. fig11's preset sweep is
// four fifths of the full list's time and adds no kind.
var raceSubset = []string{"fig2a", "fig6", "fig9", "fig16", "ablation-cache"}

// TestRunAllWorkerEquivalence is the nondeterminism tripwire: the full
// experiment list must render byte-identically with 1 worker and with 8,
// with the memo cache cleared in between so the 8-worker run really
// recomputes every cell concurrently. Run under -race this also shakes
// out data races in the shared caches; there the list is raceSubset,
// which must still reach all five cell kinds.
func TestRunAllWorkerEquivalence(t *testing.T) {
	s := equivScale()
	var exps []string // nil = all registered
	want := len(List())
	if raceEnabled {
		exps, want = raceSubset, len(raceSubset)
		kinds := map[CellKind]bool{}
		for _, id := range exps {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := e.Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range plan.Cells {
				kinds[c.Kind] = true
			}
		}
		for k := CellStat; k <= CellSchedule; k++ {
			if !kinds[k] {
				t.Fatalf("raceSubset %v plans no %v cell", exps, k)
			}
		}
	}
	ResetCellCache()
	rep1, err := RunAll(context.Background(), s, Options{Workers: 1, Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	out1 := renderAll(rep1)

	ResetCellCache()
	rep8, err := RunAll(context.Background(), s, Options{Workers: 8, Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	out8 := renderAll(rep8)

	if out1 != out8 {
		d1, d8 := out1, out8
		for i := 0; i < len(d1) && i < len(d8); i++ {
			if d1[i] != d8[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("outputs diverge at byte %d:\nworkers=1: %q\nworkers=8: %q", i, d1[lo:i+40], d8[lo:i+40])
			}
		}
		t.Fatalf("outputs differ in length: %d vs %d bytes", len(d1), len(d8))
	}
	if len(rep1.Results) != want {
		t.Fatalf("report has %d experiments, want %d", len(rep1.Results), want)
	}
}

func TestRunAllCacheSharing(t *testing.T) {
	s := equivScale()
	ResetCellCache()
	rep, err := RunAll(context.Background(), s, Options{Workers: 2, Experiments: []string{"fig4", "fig5", "fig7", "fig2b"}})
	if err != nil {
		t.Fatal(err)
	}
	// fig4 populates the stat grid; fig5 and fig7 declare identical
	// cells and must be fully served from the memo cache, and fig2b's
	// game1 column is a subset of it.
	for _, er := range rep.Results[1:] {
		if er.CacheHits != er.Cells {
			t.Errorf("%s: %d/%d cells were cache hits, want all", er.ID, er.CacheHits, er.Cells)
		}
	}
	if rep.Results[0].CacheHits != 0 {
		t.Errorf("fig4 saw %d hits on a cold cache", rep.Results[0].CacheHits)
	}
	st := CellCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats not tracking: %+v", st)
	}
}

func TestRunAllSelectionAndErrors(t *testing.T) {
	s := equivScale()
	if _, err := RunAll(context.Background(), s, Options{Experiments: []string{"fig99"}}); err == nil {
		t.Error("RunAll accepted unknown experiment id")
	}
	bad := s
	bad.CRFs = []int{99}
	if _, err := RunAll(context.Background(), bad, Options{}); err == nil {
		t.Error("RunAll accepted invalid scale")
	}
	rep, err := RunAll(context.Background(), s, Options{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].ID != "table1" {
		t.Fatalf("selection broken: %+v", rep.Results)
	}
	if got := len(rep.Results[0].Tables); got != 1 {
		t.Fatalf("table1 returned %d tables, want 1", got)
	}
}

func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAll(ctx, equivScale(), Options{Workers: 4, Experiments: []string{"fig4"}})
	if err == nil {
		t.Fatal("cancelled RunAll returned nil error")
	}
}

// TestCellErrorPropagates drives a plan whose cell cannot run (an
// unregistered clip bypassing Validate) through the pool and checks
// first-error propagation with the cell identity attached.
func TestCellErrorPropagates(t *testing.T) {
	s := equivScale()
	cells := []Cell{
		s.StatCell(encoders.SVTAV1, "game1", 10, 4),
		{Kind: CellStat, Family: encoders.SVTAV1, Clip: "no-such-clip", Frames: 2, Div: 16, Threads: 1},
	}
	_, _, err := runCells(context.Background(), cells, 2)
	if err == nil || !strings.Contains(err.Error(), "no-such-clip") {
		t.Fatalf("err = %v, want cell identity in message", err)
	}
}

func TestCellCacheBounded(t *testing.T) {
	ResetCellCache()
	defer ResetCellCache()
	s := equivScale()
	s.WindowOps = 50_000
	// A cached window is charged the bytes it holds: the chunks of its
	// run's tape that it reads in place, a few bytes an op.
	first, _, err := getCell(context.Background(), s.WindowCell(encoders.SVTAV1, "desktop", 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	held := first.Rec.Tape.Bytes()
	if w := CellCacheStats().Weight; w != held || first.Rec.Ops.Len() != 50_000 || held > 50_000*16/2 {
		t.Fatalf("a window of %d ops and %d tape bytes is charged %d, want %d and under half of 16 bytes an op", first.Rec.Ops.Len(), held, w, held)
	}
	// Budget fits roughly one window (tapes come in whole 128 KB chunks,
	// so a sixth of slack is less than one); recording three must evict.
	defer func(m *memo.Memo[Cell, CellResult]) { cellMemo = m }(cellMemo)
	cellMemo = memo.New[Cell, CellResult](held*6/5, CellResult.weight)
	for _, crf := range []int{10, 35, 60} {
		if _, _, err := getCell(context.Background(), s.WindowCell(encoders.SVTAV1, "desktop", crf, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st := CellCacheStats()
	if st.Weight > st.Cap {
		t.Errorf("cache weight %d exceeds cap %d", st.Weight, st.Cap)
	}
	if st.Entries >= 3 {
		t.Errorf("no eviction happened: %d entries", st.Entries)
	}
	// Evicted cells recompute to identical results.
	r1, _, err := getCell(context.Background(), s.WindowCell(encoders.SVTAV1, "desktop", 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rec.Ops.Len() == 0 {
		t.Error("recomputed window is empty")
	}
}

// TestCachedWindowIsReadConcurrently: a window cell's result is shared
// by pointer, and its readers read the tape in place, each with its own
// cursor: a pipeline replay, a championship and a cache study of one
// cached window run at once, fifty times over, each to the result it
// reaches alone. Under -race this is the wall for the window's
// immutability.
func TestCachedWindowIsReadConcurrently(t *testing.T) {
	ResetCellCache()
	defer ResetCellCache()
	s := equivScale()
	s.WindowOps = 20_000
	cell := s.WindowCell(encoders.SVTAV1, "game1", 35, 8)
	replay := func() (pipeline.Result, []cbp.Score, cache.Stats, error) {
		win, _, err := getCell(context.Background(), cell)
		if err != nil {
			return pipeline.Result{}, nil, cache.Stats{}, err
		}
		var (
			wg     sync.WaitGroup
			pipe   *pipeline.Result
			scores []cbp.Score
			l1     cache.Stats
			errs   [3]error
		)
		wg.Add(3)
		go func() {
			defer wg.Done()
			sim, err := pipeline.New(pipeline.Broadwell())
			if err == nil {
				pipe, err = sim.RunCtx(context.Background(), win.Rec.Ops)
			}
			errs[0] = err
		}()
		go func() {
			defer wg.Done()
			tr, err := cbp.FromRecorder("game1", win.Rec)
			if err == nil {
				scores, err = cbp.Championship(bpred.PaperSet(), []cbp.Trace{tr})
			}
			errs[1] = err
		}()
		go func() {
			defer wg.Done()
			h, err := cache.NewHierarchy(pipeline.Broadwell())
			if err == nil {
				win.Rec.Ops.Play(nil, cache.Sink{Hierarchy: h})
				l1 = h.L1.Stats()
			}
			errs[2] = err
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return pipeline.Result{}, nil, cache.Stats{}, err
			}
		}
		return *pipe, scores, l1, nil
	}
	wantPipe, wantScores, wantL1, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round < 50; round++ {
		pipe, scores, l1, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		if pipe != wantPipe || fmt.Sprint(scores) != fmt.Sprint(wantScores) || l1 != wantL1 {
			t.Fatalf("round %d: readers of one cached window disagree with round 0", round)
		}
	}
	if st := CellCacheStats(); st.Misses != 1 {
		t.Errorf("the window was recorded %d times, want once for all fifty rounds", st.Misses)
	}
}

// TestCellMemoExactlyOnce hammers one cell from many goroutines and
// checks the memo cache computes it once: all callers get the same
// result pointer and the miss counter stays at 1.
func TestCellMemoExactlyOnce(t *testing.T) {
	ResetCellCache()
	s := equivScale()
	c := s.CountedCell(encoders.SVTAV1, "desktop", 35, 8)
	const n = 16
	results := make([]CellResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := getCell(context.Background(), c)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i].Enc != results[0].Enc {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	st := CellCacheStats()
	if st.Misses != 1 {
		t.Errorf("cell computed %d times, want 1", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
}

// TestClipCacheExactlyOnce checks the concurrent-generation contract:
// many goroutines asking for the same clip trigger exactly one
// generation and share one pointer.
func TestClipCacheExactlyOnce(t *testing.T) {
	ResetClipCache()
	defer ResetClipCache()
	s := equivScale()
	const n = 16
	clips := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := s.Clip("desktop")
			if err != nil {
				t.Error(err)
				return
			}
			clips[i] = c
		}(i)
	}
	wg.Wait()
	if got := video.ClipMemoStats().Misses; got != 1 {
		t.Errorf("clip generated %d times, want exactly 1", got)
	}
	for i := 1; i < n; i++ {
		if clips[i] != clips[0] {
			t.Fatalf("caller %d got a different clip pointer", i)
		}
	}
	// Distinct keys generate independently.
	if _, err := cachedClip(context.Background(), "desktop", s.ThreadFrames, s.ThreadScaleDiv); err != nil {
		t.Fatal(err)
	}
	if got := video.ClipMemoStats().Misses; got != 2 {
		t.Errorf("generations = %d after second key, want 2", got)
	}
}

func TestClipCacheBounded(t *testing.T) {
	ResetClipCache()
	defer ResetClipCache()
	// Insert more keys than the cap by varying frame counts.
	for f := 1; f <= video.ClipMemoCap+4; f++ {
		if _, err := cachedClip(context.Background(), "desktop", f%3+1, 64+f); err != nil {
			t.Fatal(err)
		}
	}
	if n := video.ClipMemoStats().Entries; n != video.ClipMemoCap {
		t.Errorf("clip cache holds %d entries after %d inserts, cap is %d", n, video.ClipMemoCap+4, video.ClipMemoCap)
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "rfc4180",
		Header: []string{"plain", "with,comma", "with\"quote"},
	}
	tab.AddRow("a", "b,c", `say "hi"`)
	tab.AddRow("line\nbreak", "cr\rreturn", "ok")
	got := tab.CSV()
	want := "plain,\"with,comma\",\"with\"\"quote\"\n" +
		"a,\"b,c\",\"say \"\"hi\"\"\"\n" +
		"\"line\nbreak\",\"cr\rreturn\",ok\n"
	if got != want {
		t.Errorf("CSV escaping wrong:\ngot  %q\nwant %q", got, want)
	}
	// Unescaped content stays byte-identical to the legacy format.
	plain := &Table{ID: "y", Header: []string{"a", "bb"}}
	plain.AddRow("1", "2")
	if plain.CSV() != "a,bb\n1,2\n" {
		t.Errorf("plain CSV changed: %q", plain.CSV())
	}
}

func TestCellString(t *testing.T) {
	s := equivScale()
	c := s.PipelineCell(encoders.SVTAV1, "game1", 30, 4)
	str := c.String()
	for _, want := range []string{"pipeline", "svt-av1", "game1", "crf30"} {
		if !strings.Contains(str, want) {
			t.Errorf("Cell.String() = %q missing %q", str, want)
		}
	}
	if c.windowKey().Kind != CellWindow {
		t.Error("windowKey did not produce a window cell")
	}
	for k := CellStat; k <= CellSchedule; k++ {
		if strings.HasPrefix(k.String(), "kind") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(CellKind(99).String(), "kind") {
		t.Error("unknown kind should fall back to numeric form")
	}
}

func TestExperimentWithoutPlan(t *testing.T) {
	e := Experiment{ID: "bogus", Title: "no plan"}
	if _, err := e.Run(equivScale()); err == nil {
		t.Error("Run accepted experiment with nil Plan")
	}
}

func TestReportShape(t *testing.T) {
	ResetCellCache()
	rep, err := RunAll(context.Background(), equivScale(), Options{Workers: 3, Experiments: []string{"fig7", "fig7"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf("Workers = %d, want 3", rep.Workers)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	a, b := rep.Results[0], rep.Results[1]
	if a.Cells != b.Cells || a.Cells == 0 {
		t.Errorf("cell accounting wrong: %d vs %d", a.Cells, b.Cells)
	}
	if b.CacheHits != b.Cells {
		t.Errorf("second identical run had %d/%d hits", b.CacheHits, b.Cells)
	}
	if fmt.Sprint(a.Wall) == "" || a.Title == "" {
		t.Error("report fields unpopulated")
	}
}

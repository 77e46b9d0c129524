package perf

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// branchLog is a live sink that keeps every branch of a run with its
// dynamic index, read off the Ctx: a record of the branch stream that
// owes nothing to the tape.
type branchLog struct {
	tc  *trace.Ctx
	idx []uint64
	ops []trace.MicroOp
}

func (b *branchLog) Branch(pc trace.PC, taken bool) {
	b.idx = append(b.idx, b.tc.Total()-1)
	b.ops = append(b.ops, trace.MicroOp{PC: pc, Class: trace.OpBranch, Taken: taken})
}

func (b *branchLog) Loop(pc trace.PC, iters int) {
	first := b.tc.Total() - uint64(iters)
	for i := 0; i < iters; i++ {
		b.idx = append(b.idx, first+uint64(i))
		b.ops = append(b.ops, trace.MicroOp{PC: pc, Class: trace.OpBranch, Taken: i < iters-1})
	}
}

// twoPassWindow is the window recorder RecordWindow replaced, kept as
// its reference: one encode to count the run, the parent's placement
// rule, and a second encode to record. It also returns the window's
// branches as a live sink saw them during the second encode.
func twoPassWindow(t *testing.T, enc encoders.Encoder, clip *video.Clip, opts encoders.Options, frac float64, limit uint64) (rec *trace.Recorder, total uint64, branches []trace.MicroOp) {
	t.Helper()
	countCtx := trace.New()
	opts.Threads = 1
	opts.Pool = nil
	opts.NewWorkerCtx = func(int) *trace.Ctx { return countCtx }
	if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
		t.Fatal(err)
	}
	total = countCtx.Total()
	start := uint64(float64(total) * frac)
	if start+limit > total {
		if limit > total {
			limit = total
		}
		start = total - limit
	}
	rec = &trace.Recorder{}
	recCtx := trace.New()
	recCtx.AttachRecorder(rec)
	log := &branchLog{tc: recCtx}
	recCtx.AttachBranchSink(log)
	opts.NewWorkerCtx = func(int) *trace.Ctx { return recCtx }
	if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
		t.Fatal(err)
	}
	rec.Cut(start, limit)
	for i, idx := range log.idx {
		if idx >= start && idx < start+limit {
			branches = append(branches, log.ops[i])
		}
	}
	return rec, total, branches
}

// TestRecordWindowMatchesTwoPass: cutting the window from one encode's
// tape gives the Start, Limit, total and Ops the count-then-record pair
// of encodes gave, on every family, at the start, middle and end of the
// run and for windows shorter and longer than it; and the branch list
// CBP takes off the tape is the one a live sink saw.
func TestRecordWindowMatchesTwoPass(t *testing.T) {
	c := clip(t, "game1", 2, 24)
	for _, fam := range encoders.Families() {
		enc := encoders.MustNew(fam)
		lo, hi := enc.CRFRange()
		opts := encoders.Options{CRF: (lo + hi) / 2, Preset: 6}
		for _, frac := range []float64{0, 0.5, 0.99} {
			for _, limit := range []uint64{1, 30_000, 1 << 40} {
				want, wantTotal, wantBranches := twoPassWindow(t, enc, c, opts, frac, limit)
				got, total, err := RecordWindow(context.Background(), enc, c, opts, frac, limit)
				if err != nil {
					t.Fatal(err)
				}
				if total != wantTotal || got.Start != want.Start || got.Limit != want.Limit {
					t.Fatalf("%s frac %v limit %d: window [%d, +%d) of %d, two-pass reference [%d, +%d) of %d",
						fam, frac, limit, got.Start, got.Limit, total, want.Start, want.Limit, wantTotal)
				}
				if !slices.Equal(got.Ops.MicroOps(), want.Ops.MicroOps()) {
					t.Fatalf("%s frac %v limit %d: %d ops differ from the reference's %d", fam, frac, limit, got.Ops.Len(), want.Ops.Len())
				}
				if uint64(got.Ops.Len()) != got.Limit {
					t.Fatalf("%s frac %v limit %d: %d ops in a window of %d", fam, frac, limit, got.Ops.Len(), got.Limit)
				}
				if br := got.Ops.Branches(); !slices.Equal(br, wantBranches) {
					t.Fatalf("%s frac %v limit %d: the tape lists %d branches, a live sink saw %d", fam, frac, limit, len(br), len(wantBranches))
				}
			}
		}
	}
}

// countingEncoder counts the encodes asked of it.
type countingEncoder struct {
	encoders.Encoder
	encodes *int
}

func (e countingEncoder) Encode(ctx context.Context, clip *video.Clip, opts encoders.Options) (*encoders.Result, error) {
	*e.encodes++
	return e.Encoder.Encode(ctx, clip, opts)
}

// TestRecordWindowEncodesOnce: the window is placed after the run, not
// by a counting run before it (a run too long for a tape is the
// exception: TestRecordWindowOfARunLongerThanATape).
func TestRecordWindowEncodesOnce(t *testing.T) {
	var encodes int
	enc := countingEncoder{encoders.MustNew(encoders.X264), &encodes}
	if _, _, err := RecordWindow(context.Background(), enc, clip(t, "game2", 2, 16), encoders.Options{CRF: 30, Preset: 5}, 0.5, 50_000); err != nil {
		t.Fatal(err)
	}
	if encodes != 1 {
		t.Errorf("RecordWindow ran %d encodes, want 1", encodes)
	}
}

// floodEncoder stands in for an encode far longer than its window: it
// reports a run of single branches, each a record of its own.
type floodEncoder struct {
	encoders.Encoder
	branches int
	encodes  *int
}

func (f floodEncoder) Encode(_ context.Context, _ *video.Clip, opts encoders.Options) (*encoders.Result, error) {
	*f.encodes++
	tc := opts.NewWorkerCtx(0)
	pc := trace.Site("perf/flood")
	for i := 0; i < f.branches; i++ {
		tc.Branch(pc, i%7 == 0)
	}
	return &encoders.Result{}, nil
}

// TestRecordWindowOfARunLongerThanATape: a tape keeps the most recent
// 32 MB of a run. A halfway window of a run somewhat longer than that
// is still on it after one encode; a window at the start has slid off,
// and costs a second encode that keeps the window only. Either way the
// window holds the right ops and the recorder retains the window's
// chunks, not the run's.
func TestRecordWindowOfARunLongerThanATape(t *testing.T) {
	const branches = 4_500_000 // 34 MB of one-word records
	for _, tc := range []struct {
		frac    float64
		encodes int
	}{{0.5, 1}, {0, 2}} {
		var encodes int
		enc := floodEncoder{encoders.MustNew(encoders.X264), branches, &encodes}
		rec, total, err := RecordWindow(context.Background(), enc, clip(t, "game2", 1, 32), encoders.Options{}, tc.frac, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if encodes != tc.encodes || total != branches || rec.Start != uint64(tc.frac*branches) || rec.Ops.Len() != 10_000 {
			t.Fatalf("frac %v: %d encodes, total %d, window [%d, +%d), want %d encodes, total %d, window [%d, +10000)",
				tc.frac, encodes, total, rec.Start, rec.Ops.Len(), tc.encodes, branches, uint64(tc.frac*branches))
		}
		for i, op := range rec.Ops.MicroOps() {
			if want := (trace.MicroOp{PC: trace.Site("perf/flood"), Class: trace.OpBranch, Taken: (int(rec.Start)+i)%7 == 0}); op != want {
				t.Fatalf("frac %v: op %d = %+v, want %+v", tc.frac, i, op, want)
			}
		}
		if held := rec.Tape.Bytes(); held > 256<<10 {
			t.Errorf("frac %v: the recorder retains %d bytes of tape for a 10,000-op window", tc.frac, held)
		}
	}
}

// TestRecordWindowSteadyStateAlloc is the window half of the allocation
// budget, on the clip vcbench's replay grid encodes (2 frames, div 20):
// a warm RecordWindow allocates its tape in chunks that are never
// regrown, and otherwise what one counted encode of the clip allocates:
// nothing per op. It was the tape and 16 bytes an op besides, and
// before that 24 bytes an op and two encodes.
func TestRecordWindowSteadyStateAlloc(t *testing.T) {
	c := clip(t, "game1", 2, 20)
	enc := encoders.MustNew(encoders.SVTAV1)
	opts := encoders.Options{CRF: 35, Preset: 6}
	measure := func(f func()) (bytes, objects uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	counted := opts
	counted.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
	var rec *trace.Recorder
	var total uint64
	var err error
	record := func() { rec, total, err = RecordWindow(context.Background(), enc, c, opts, 0.5, 1_000_000) }
	encode := func() { _, err = enc.Encode(context.Background(), c, counted) }
	record() // warm: lazily built tables
	encBytes, encObjects := measure(encode)
	if err != nil {
		t.Fatal(err)
	}
	bytes, objects := measure(record)
	if err != nil {
		t.Fatal(err)
	}
	// The window is the whole run, so the tape the recorder retains is
	// all the tape there was.
	if rec.Ops.Len() < 300_000 || uint64(rec.Ops.Len()) != total {
		t.Fatalf("window holds %d ops of %d, want all of a few hundred thousand", rec.Ops.Len(), total)
	}
	if budget := uint64(rec.Tape.Bytes()) + encBytes + 256<<10; bytes > budget || bytes > 8*total {
		t.Errorf("a warm RecordWindow allocated %d bytes, want at most %d (%d of tape, %d the encode) and under 8 an op",
			bytes, budget, rec.Tape.Bytes(), encBytes)
	}
	t.Logf("%d ops: %d bytes (%d tape, %d encode), %d objects (%d encode)",
		rec.Ops.Len(), bytes, rec.Tape.Bytes(), encBytes, objects, encObjects)
	if objects > encObjects+200 {
		t.Errorf("a warm RecordWindow allocated %d objects, one counted encode %d: want at most 200 more", objects, encObjects)
	}

	// A run several times longer than its window: the tape keeps only
	// the stretch the window can still start in, the last quarter of the
	// run, and opens each later chunk in the storage of one that fell
	// below it, so it allocates that stretch and two chunks more, not
	// the run.
	const branches, frac = 2_000_000, 0.75
	var encodes int
	flood := floodEncoder{enc, branches, &encodes}
	bytes, _ = measure(func() { rec, total, err = RecordWindow(context.Background(), flood, c, opts, frac, 100_000) })
	if err != nil {
		t.Fatal(err)
	}
	if encodes != 1 || total != branches || rec.Ops.Len() != 100_000 {
		t.Fatalf("flood: %d encodes, total %d, a window of %d, want 1, %d and 100000", encodes, total, rec.Ops.Len(), branches)
	}
	kept := uint64(float64(branches)*(1-frac)) * 8 // one word a branch
	t.Logf("flood of %d branches: %d bytes allocated, %d of them the stretch the window can start in", branches, bytes, kept)
	if budget := kept + 2*128<<10 + 64<<10; bytes > budget {
		t.Errorf("a RecordWindow of %d branches at %v allocated %d bytes, want at most %d: %d the last quarter of the run, 256 KB two chunks, 64 KB the rest",
			branches, frac, bytes, budget, kept)
	}
}

// replayPoint returns the middle preset and CRF of enc: vcbench
// replay_grid's point for each family.
func replayPoint(enc encoders.Encoder) encoders.Options {
	lo, hi, _ := enc.PresetRange()
	_, crfHi := enc.CRFRange()
	return encoders.Options{CRF: crfHi / 2, Preset: (lo + hi + 1) / 2}
}

// BenchmarkRecordWindow times RecordWindow at vcbench replay_grid's
// shape, one family a sub-benchmark: a 2-frame game1 clip at 1/20
// scale, the middle preset and CRF, and a 1 M-op window at 0.5 (on
// this clip, the whole run).
func BenchmarkRecordWindow(b *testing.B) {
	c := clip(b, "game1", 2, 20)
	for _, fam := range encoders.Families() {
		enc := encoders.MustNew(fam)
		b.Run(string(fam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RecordWindow(context.Background(), enc, c, replayPoint(enc), 0.5, 1_000_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkWindowBranches times listing the branches of the window
// BenchmarkRecordWindow records, the whole run, as cbp.FromWindow does
// for each replay_grid point, in µs/op.
func BenchmarkWindowBranches(b *testing.B) {
	c := clip(b, "game1", 2, 20)
	for _, fam := range encoders.Families() {
		enc := encoders.MustNew(fam)
		rec, _, err := RecordWindow(context.Background(), enc, c, replayPoint(enc), 0.5, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(fam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(rec.Ops.Branches()) == 0 {
					b.Fatal("a window without branches")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
		})
	}
}

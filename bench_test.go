// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, see DESIGN.md's per-experiment index), the
// ablation benches for the design choices DESIGN.md calls out, and
// micro-benchmarks for the hot simulator kernels.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig8 -benchmem
package vcprof

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"vcprof/internal/codec"
	"vcprof/internal/codec/entropy"
	"vcprof/internal/codec/motion"
	"vcprof/internal/codec/transform"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/pipeline"
	"vcprof/internal/video"
)

// benchScale is the workload the experiment benchmarks run: one clip,
// three CRF points, small frames — enough to regenerate every shape in
// seconds per figure.
func benchScale() harness.Scale {
	s := harness.QuickScale()
	s.Clips = []string{"game1"}
	s.Frames = 3
	s.WindowOps = 150_000
	return s
}

// runExperiment executes a registered experiment b.N times and reports
// a headline metric from its first table. The cell memo cache is
// cleared each iteration so the benchmark measures uncached experiment
// cost (matching the pre-engine semantics); generated clips stay
// cached, as before.
func runExperiment(b *testing.B, id string, metric func(tabs []*harness.Table) (string, float64)) {
	b.Helper()
	s := benchScale()
	var tabs []*harness.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.ResetCellCache()
		rep, err := harness.RunAll(context.Background(), s, harness.Options{Experiments: []string{id}, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		tabs = rep.Results[0].Tables
	}
	b.StopTimer()
	if metric != nil && len(tabs) > 0 {
		name, v := metric(tabs)
		b.ReportMetric(v, name)
	}
}

// BenchmarkRunAllMemoized measures a full engine pass over every
// experiment with a warm memo cache primed by one cold pass: the
// regenerate-everything cost when cells are shared across experiments.
func BenchmarkRunAllMemoized(b *testing.B) {
	s := benchScale()
	harness.ResetCellCache()
	if _, err := harness.RunAll(context.Background(), s, harness.Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunAll(context.Background(), s, harness.Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllCold measures the same full pass with the memo cache
// cleared every iteration — the denominator of the cache's speedup.
func BenchmarkRunAllCold(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.ResetCellCache()
		if _, err := harness.RunAll(context.Background(), s, harness.Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// cellF parses a numeric table cell.
func cellF(tabs []*harness.Table, table, row, col int) float64 {
	if table >= len(tabs) || row >= len(tabs[table].Rows) || col >= len(tabs[table].Rows[row]) {
		return 0
	}
	v, _ := strconv.ParseFloat(tabs[table].Rows[row][col], 64)
	return v
}

// --- One benchmark per paper artifact -------------------------------

func BenchmarkTable1Catalog(b *testing.B) {
	runExperiment(b, "table1", nil)
}

func BenchmarkFig1RuntimeVsCRF(b *testing.B) {
	runExperiment(b, "fig1", func(t []*harness.Table) (string, float64) {
		// svt-av1 / x264 instruction ratio at the lowest CRF.
		return "svt/x264-insts", cellF(t, 1, 0, 5) / cellF(t, 1, 0, 1)
	})
}

func BenchmarkFig2aBDRate(b *testing.B) {
	runExperiment(b, "fig2a", func(t []*harness.Table) (string, float64) {
		return "svt-bdrate-pct", cellF(t, 0, 4, 1)
	})
}

func BenchmarkFig2bPSNRvsTime(b *testing.B) {
	runExperiment(b, "fig2b", nil)
}

func BenchmarkTable2InstrMix(b *testing.B) {
	runExperiment(b, "table2", func(t []*harness.Table) (string, float64) {
		return "avx-pct", cellF(t, 0, 0, 5)
	})
}

func BenchmarkFig3OpMix(b *testing.B) {
	runExperiment(b, "fig3", nil)
}

func BenchmarkFig4CRFSweep(b *testing.B) {
	runExperiment(b, "fig4", func(t []*harness.Table) (string, float64) {
		return "ipc-crf10", cellF(t, 2, 0, 1)
	})
}

func BenchmarkFig5TopDown(b *testing.B) {
	runExperiment(b, "fig5", func(t []*harness.Table) (string, float64) {
		return "retiring", cellF(t, 0, 0, 2)
	})
}

func BenchmarkFig6Microarch(b *testing.B) {
	runExperiment(b, "fig6", func(t []*harness.Table) (string, float64) {
		return "l1d-mpki-crf60", cellF(t, 0, len(t[0].Rows)-1, 3)
	})
}

func BenchmarkFig7BranchMissRate(b *testing.B) {
	runExperiment(b, "fig7", func(t []*harness.Table) (string, float64) {
		return "missrate-pct", cellF(t, 0, 0, 2)
	})
}

func BenchmarkFig8CBP(b *testing.B) {
	runExperiment(b, "fig8", func(t []*harness.Table) (string, float64) {
		return "tage64-mpki", cellF(t, 0, 0, 4)
	})
}

func BenchmarkFig9CBP(b *testing.B) {
	runExperiment(b, "fig9", nil)
}

func BenchmarkFig10CBP(b *testing.B) {
	runExperiment(b, "fig10", nil)
}

func BenchmarkFig11PresetSweep(b *testing.B) {
	runExperiment(b, "fig11", func(t []*harness.Table) (string, float64) {
		// preset-0 over preset-8 instruction ratio.
		return "p0/p8-insts", cellF(t, 0, 0, 2) / cellF(t, 0, 8, 2)
	})
}

func BenchmarkFig12ThreadScaling(b *testing.B) {
	runExperiment(b, "fig12", func(t []*harness.Table) (string, float64) {
		return "svt-speedup-8t", cellF(t, 0, len(t[0].Rows)-1, 4)
	})
}

func BenchmarkFig13ThreadScaling(b *testing.B) {
	runExperiment(b, "fig13", nil)
}

func BenchmarkFig14ThreadScaling(b *testing.B) {
	runExperiment(b, "fig14", nil)
}

func BenchmarkFig15ThreadScaling(b *testing.B) {
	runExperiment(b, "fig15", nil)
}

func BenchmarkFig16TopDownThreads(b *testing.B) {
	runExperiment(b, "fig16", nil)
}

// --- Ablations (DESIGN.md §5) ----------------------------------------

func BenchmarkAblationPartitionSpace(b *testing.B) {
	runExperiment(b, "ablation-partition", func(t []*harness.Table) (string, float64) {
		return "10shape/4shape-insts", cellF(t, 0, 0, 2) / cellF(t, 0, 1, 2)
	})
}

func BenchmarkAblationPredictorBudget(b *testing.B) {
	runExperiment(b, "ablation-predictor", nil)
}

func BenchmarkAblationCacheGeometry(b *testing.B) {
	runExperiment(b, "ablation-cache", nil)
}

func BenchmarkAblationMotionSearch(b *testing.B) {
	runExperiment(b, "ablation-motion", nil)
}

// --- Kernel micro-benchmarks -----------------------------------------

func benchClip(b *testing.B) *video.Clip {
	b.Helper()
	meta, err := video.LookupClip("game1")
	if err != nil {
		b.Fatal(err)
	}
	clip, err := video.Generate(meta, video.GenerateOptions{Frames: 3, ScaleDiv: 16})
	if err != nil {
		b.Fatal(err)
	}
	return clip
}

// benchEncode times a plain (untraced) encode of the micro-benchmark
// clip: one per family, at a mid-range operating point of its scales.
func benchEncode(b *testing.B, fam encoders.Family, crf, preset int) {
	clip := benchClip(b)
	enc := encoders.MustNew(fam)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(context.Background(), clip, encoders.Options{CRF: crf, Preset: preset}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSVTAV1(b *testing.B) { benchEncode(b, encoders.SVTAV1, 40, 6) }
func BenchmarkEncodeX264(b *testing.B)   { benchEncode(b, encoders.X264, 30, 4) }
func BenchmarkEncodeX265(b *testing.B)   { benchEncode(b, encoders.X265, 30, 4) }
func BenchmarkEncodeLibaom(b *testing.B) { benchEncode(b, encoders.Libaom, 40, 6) }
func BenchmarkEncodeVP9(b *testing.B)    { benchEncode(b, encoders.VP9, 40, 6) }

// benchTAGE times Step on a period-3 stream over 512 pcs.
func benchTAGE(b *testing.B, sizeBytes int) {
	p, err := bpred.NewTAGE(sizeBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + (i%512)*16)
		taken := i%3 != 0
		p.Step(pc, taken)
	}
}

func BenchmarkTAGEPredict(b *testing.B) { benchTAGE(b, 64<<10) }

// BenchmarkTAGE8KPredict is the geometry perf.Stat runs live.
func BenchmarkTAGE8KPredict(b *testing.B) { benchTAGE(b, 8<<10) }

// BenchmarkTAGE8KWindowReplay replays the branches of a recorded
// encoder window through bpred.Monitor, the sink a stat cell attaches:
// real pcs and outcomes and the interface dispatch, one op a branch.
func BenchmarkTAGE8KWindowReplay(b *testing.B) {
	rec, _, err := perf.RecordWindow(context.Background(), encoders.MustNew(encoders.SVTAV1), benchClip(b),
		encoders.Options{CRF: 40, Preset: 4, Threads: 1}, 0.5, 400_000)
	if err != nil {
		b.Fatal(err)
	}
	branches := rec.Ops.Branches()
	if len(branches) == 0 {
		b.Fatal("window recorded no branches")
	}
	p, err := bpred.NewByName("tage-8KB")
	if err != nil {
		b.Fatal(err)
	}
	m := bpred.NewMonitor(p)
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		m.Branch(branches[j].PC, branches[j].Taken)
		if j++; j == len(branches) {
			// Every pass starts cold, as a cell does.
			j = 0
			p.Reset()
		}
	}
	b.ReportMetric(100*m.MissRate(), "miss%")
}

func BenchmarkGsharePredict(b *testing.B) {
	p, err := bpred.NewGshare(32 << 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + (i%512)*16)
		p.Step(pc, i%3 != 0)
	}
}

func BenchmarkCacheHierarchyAccess(b *testing.B) {
	h, err := cache.NewXeonHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%100000)*64, i%5 == 0)
	}
}

// BenchmarkCacheHierarchyRun feeds the hierarchy 16-access rows of
// 8-byte loads, two lines a row, the rows a frame stride apart over
// 190 MB: a miss-heavy walk of the run path, not the stream a stat cell
// sends (BenchmarkCacheWindowPlay is that). One op is one access.
func BenchmarkCacheHierarchyRun(b *testing.B) {
	h, err := cache.NewXeonHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	const row = 16
	b.ResetTimer()
	for i := 0; i < b.N; i += row {
		h.Run(uint64(i/row%100000)*1936, row, 8, 8, i%5 == 0)
	}
}

func BenchmarkPipelineReplay(b *testing.B) {
	sim, err := pipeline.New(pipeline.Broadwell())
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]trace.MicroOp, 100_000)
	for i := range ops {
		switch i % 5 {
		case 0:
			ops[i] = trace.MicroOp{PC: 0x400000, Class: trace.OpLoad, Addr: uint64(0x1000000 + i*8), Size: 8}
		case 1, 2:
			ops[i] = trace.MicroOp{PC: 0x400010, Class: trace.OpAVX}
		case 3:
			ops[i] = trace.MicroOp{PC: 0x400020, Class: trace.OpBranch, Taken: i%7 != 0}
		default:
			ops[i] = trace.MicroOp{PC: 0x400030, Class: trace.OpOther}
		}
	}
	win := trace.WindowOf(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(win); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ops)))
}

// benchWindow records the window BenchmarkRecordWindow is about:
// the middle 400k ops of an SVT-AV1 encode of the bench clip.
func benchWindow(b *testing.B, clip *video.Clip) *trace.Recorder {
	b.Helper()
	rec, _, err := perf.RecordWindow(context.Background(), encoders.MustNew(encoders.SVTAV1), clip,
		encoders.Options{CRF: 40, Preset: 4}, 0.5, 400_000)
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkCacheWindowPlay plays the memory runs of benchWindow into a
// cold paper-machine hierarchy through the live sink: the stream a stat
// cell's cache sees, L1-resident and mostly single-access runs. One op
// is one pass; ns/access is per memory instruction, as vcbench's
// cache.ns_per_access, and l1-miss% is the bit-exactness tell.
func BenchmarkCacheWindowPlay(b *testing.B) {
	rec := benchWindow(b, benchClip(b))
	accesses := 0
	var r trace.Run
	for c := rec.Ops.Cursor(); c.Next(&r); {
		if r.Class == trace.OpLoad || r.Class == trace.OpStore {
			accesses += r.Count
		}
	}
	h, err := cache.NewXeonHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		rec.Ops.Play(nil, cache.Sink{Hierarchy: h})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
	l1 := h.L1.Stats()
	b.ReportMetric(100*float64(l1.Misses)/float64(l1.Accesses), "l1-miss%")
}

// BenchmarkRecordWindow is the Pin substitute end to end: one encode
// onto a tape and the window cut from it.
func BenchmarkRecordWindow(b *testing.B) {
	clip := benchClip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchWindow(b, clip)
	}
}

func BenchmarkAblationPrefetcher(b *testing.B) {
	runExperiment(b, "ablation-prefetch", nil)
}

// --- Codec kernel micro-benchmarks -----------------------------------
//
// The per-kernel benches below time the measured hot paths themselves
// (uninstrumented: tc=nil exercises the disabled obs/trace fast path,
// the configuration the overhead guard in internal/obs pins down).

// benchSurface fills a plane with a deterministic pseudo-random pattern
// (splitmix-style LCG, no math/rand).
func benchSurface(w, h int, seed uint64) codec.Surface {
	p := video.NewPlane(w, h)
	s := seed
	for i := range p.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		p.Pix[i] = byte(s >> 56)
	}
	return codec.Surface{Plane: p}
}

func BenchmarkMotionSAD(b *testing.B) {
	cur := benchSurface(128, 128, 1)
	ref := benchSurface(128, 128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := motion.SAD(nil, cur, 32, 32, ref, 33, 31, 16, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(16 * 16)
}

func BenchmarkMotionSearch(b *testing.B) {
	cur := benchSurface(192, 192, 3)
	ref := benchSurface(192, 192, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := motion.Search(nil, motion.Diamond, cur, 64, 64, ref, 16, 16, 24, codec.MV{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResidual builds an n×n residual block with mixed energy.
func benchResidual(n int) []int32 {
	res := make([]int32, n*n)
	s := uint64(5)
	for i := range res {
		s = s*6364136223846793005 + 1442695040888963407
		res[i] = int32(s>>56)%256 - 128
	}
	return res
}

// benchTransform times one direction of the n×n transform; the
// reported allocs/op must stay 0.
func benchTransform(b *testing.B, n int, inverse bool) {
	src := benchResidual(n)
	dst := make([]int32, n*n)
	// The Forward call also builds the DCT matrix, so a -benchtime=1x
	// run reads 0 allocs/op too.
	if err := transform.Forward(nil, src, n, dst); err != nil {
		b.Fatal(err)
	}
	f := transform.Forward
	if inverse {
		src, f = append([]int32(nil), dst...), transform.Inverse
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(nil, src, n, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformForward4(b *testing.B)  { benchTransform(b, 4, false) }
func BenchmarkTransformForward8(b *testing.B)  { benchTransform(b, 8, false) }
func BenchmarkTransformForward16(b *testing.B) { benchTransform(b, 16, false) }
func BenchmarkTransformForward32(b *testing.B) { benchTransform(b, 32, false) }
func BenchmarkTransformInverse4(b *testing.B)  { benchTransform(b, 4, true) }
func BenchmarkTransformInverse8(b *testing.B)  { benchTransform(b, 8, true) }
func BenchmarkTransformInverse16(b *testing.B) { benchTransform(b, 16, true) }
func BenchmarkTransformInverse32(b *testing.B) { benchTransform(b, 32, true) }

// benchBits derives the coder benchmark's bit/probability schedule.
const benchBitCount = 4096

func benchBits() ([]int, []entropy.Prob) {
	bits := make([]int, benchBitCount)
	probs := make([]entropy.Prob, benchBitCount)
	s := uint64(9)
	for i := range bits {
		s = s*6364136223846793005 + 1442695040888963407
		bits[i] = int(s>>63) & 1
		probs[i] = entropy.Prob(s>>40) | 1
	}
	return bits, probs
}

func BenchmarkRangeCoderEncode(b *testing.B) {
	bits, probs := benchBits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := new(entropy.Encoder)
		enc.Reset(nil, 0)
		for j, bit := range bits {
			enc.Bit(bit, probs[j])
		}
		enc.Finish()
	}
	b.SetBytes(benchBitCount / 8)
}

func BenchmarkRangeCoderDecode(b *testing.B) {
	bits, probs := benchBits()
	enc := new(entropy.Encoder)
	enc.Reset(nil, 0)
	for j, bit := range bits {
		enc.Bit(bit, probs[j])
	}
	stream := enc.Finish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := entropy.NewDecoder(stream)
		for j := range bits {
			if dec.Bit(probs[j]) != bits[j] {
				b.Fatal("round-trip mismatch")
			}
		}
	}
	b.SetBytes(benchBitCount / 8)
}

// BenchmarkCellStatEndToEnd is the end-to-end cell cost: a full
// perf-façade run (instrumented encode through the live branch
// predictor and cache hierarchy), the unit of work everything in the
// harness engine schedules and memoizes.
func BenchmarkCellStatEndToEnd(b *testing.B) {
	clip := benchClip(b)
	enc := encoders.MustNew(encoders.SVTAV1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perf.Stat(context.Background(), enc, clip, encoders.Options{CRF: 40, Preset: 4, Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

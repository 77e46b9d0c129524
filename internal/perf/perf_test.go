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

func clip(t testing.TB, name string, frames, div int) *video.Clip {
	t.Helper()
	meta, err := video.LookupClip(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := video.Generate(meta, video.GenerateOptions{Frames: frames, ScaleDiv: div})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStatProducesPaperLikeCounters(t *testing.T) {
	c := clip(t, "game1", 4, 16)
	enc := encoders.MustNew(encoders.SVTAV1)
	got, err := Stat(context.Background(), enc, c, encoders.Options{CRF: 35, Preset: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions == 0 || got.Cycles == 0 {
		t.Fatal("no instructions/cycles measured")
	}
	// The paper's headline: IPC hovers around 2 on a 4-wide machine,
	// retiring slots 0.4–0.6. Allow a generous band.
	if got.IPC < 1.0 || got.IPC > 3.2 {
		t.Errorf("IPC = %v, want in [1.0, 3.2] (paper: ~2)", got.IPC)
	}
	if got.TopDown.Retiring < 0.25 || got.TopDown.Retiring > 0.8 {
		t.Errorf("retiring = %v, want 0.25–0.8 (paper: 0.4–0.6)", got.TopDown.Retiring)
	}
	if err := got.TopDown.Validate(); err != nil {
		t.Error(err)
	}
	// Backend waste should dominate frontend waste (paper §4.2.2).
	if got.TopDown.Backend <= got.TopDown.Frontend {
		t.Errorf("backend %v not above frontend %v", got.TopDown.Backend, got.TopDown.Frontend)
	}
	if got.BranchMissPct <= 0 || got.BranchMissPct > 25 {
		t.Errorf("branch miss rate %v%% implausible", got.BranchMissPct)
	}
	if got.L1DMPKI <= 0 {
		t.Error("no L1D misses measured")
	}
	if got.LLCMPKI > got.L1DMPKI {
		t.Errorf("LLC MPKI %v above L1D MPKI %v", got.LLCMPKI, got.L1DMPKI)
	}
	if got.PSNR < 20 || got.Bytes == 0 {
		t.Error("encode outputs not carried through")
	}
}

func TestStatCRFTrends(t *testing.T) {
	// The paper's core CRF findings: instructions fall sharply as CRF
	// rises; branch MPKI falls; L1D MPKI rises (roofline argument).
	c := clip(t, "cricket", 4, 16)
	enc := encoders.MustNew(encoders.SVTAV1)
	lo, err := Stat(context.Background(), enc, c, encoders.Options{CRF: 15, Preset: 5})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Stat(context.Background(), enc, c, encoders.Options{CRF: 60, Preset: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Instructions >= lo.Instructions {
		t.Errorf("instructions at CRF60 (%d) not below CRF15 (%d)", hi.Instructions, lo.Instructions)
	}
	if hi.L1DMPKI <= lo.L1DMPKI {
		t.Errorf("L1D MPKI at CRF60 (%v) not above CRF15 (%v); roofline trend missing", hi.L1DMPKI, lo.L1DMPKI)
	}
	if hi.BranchMPKI >= lo.BranchMPKI {
		t.Errorf("branch MPKI at CRF60 (%v) not below CRF15 (%v)", hi.BranchMPKI, lo.BranchMPKI)
	}
}

// TestStatSteadyStateAllocBytes is the stat-cell half of the allocation
// budget: after one warm call a bench-sized cell (2 frames, div 20)
// allocates what the encode allocates, not a cache hierarchy — it was
// ~12 MB a cell when each built its own.
func TestStatSteadyStateAllocBytes(t *testing.T) {
	c := clip(t, "game1", 2, 20)
	for _, fam := range encoders.Families() {
		enc := encoders.MustNew(fam)
		lo, hi := enc.CRFRange()
		opts := encoders.Options{CRF: (lo + hi) / 2, Preset: 5}
		if _, err := Stat(context.Background(), enc, c, opts); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Stat(context.Background(), enc, c, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: a warm Stat allocated %d bytes, want under 1 MB", fam, grew)
		}
	}
}

func TestStatValidation(t *testing.T) {
	if _, err := Stat(context.Background(), nil, nil, encoders.Options{}); err == nil {
		t.Error("accepted nil inputs")
	}
}

func TestRecordWindow(t *testing.T) {
	c := clip(t, "game2", 3, 16)
	enc := encoders.MustNew(encoders.SVTAV1)
	opts := encoders.Options{CRF: 50, Preset: 8}
	rec, total, err := RecordWindow(context.Background(), enc, c, opts, 0.5, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("total instructions = 0")
	}
	ops := rec.Ops.MicroOps()
	if len(ops) != rec.Ops.Len() || uint64(len(ops)) != 50_000 && uint64(len(ops)) != total {
		t.Errorf("recorded %d ops in a window of %d, want 50000 (or the whole short run)", len(ops), rec.Ops.Len())
	}
	if rec.Start < total/4 {
		t.Errorf("window start %d not near halfway of %d", rec.Start, total)
	}
	// The window is read where it was written: it holds only the
	// chunks of tape its records are in.
	if rec.Tape.Bytes() > 16*50_000/2 {
		t.Errorf("a window of %d ops holds %d bytes of tape, want under half of 16 bytes an op", len(ops), rec.Tape.Bytes())
	}
	hasBranch, hasMem := false, false
	for _, op := range ops {
		if op.IsBranch() {
			hasBranch = true
		}
		if op.Class == trace.OpLoad || op.Class == trace.OpStore {
			hasMem = true
		}
	}
	if !hasBranch || !hasMem {
		t.Error("window missing branches or memory ops")
	}
	// Determinism: recording again yields the identical window.
	rec2, total2, err := RecordWindow(context.Background(), enc, c, opts, 0.5, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if total2 != total || !slices.Equal(rec2.Ops.MicroOps(), ops) {
		t.Fatalf("second recording differs: %d/%d vs %d/%d", total2, rec2.Ops.Len(), total, len(ops))
	}
}

func TestRecordWindowValidation(t *testing.T) {
	c := clip(t, "game2", 2, 16)
	enc := encoders.MustNew(encoders.X264)
	if _, _, err := RecordWindow(context.Background(), enc, c, encoders.Options{CRF: 30}, 1.5, 0); err == nil {
		t.Error("accepted fraction >= 1")
	}
	if _, _, err := RecordWindow(context.Background(), nil, c, encoders.Options{}, 0.5, 0); err == nil {
		t.Error("accepted nil encoder")
	}
}

func TestProfileFindsHotFunctions(t *testing.T) {
	c := clip(t, "desktop", 3, 16)
	enc := encoders.MustNew(encoders.SVTAV1)
	prof, err := Profile(context.Background(), enc, c, encoders.Options{CRF: 30, Preset: 4})
	if err != nil {
		t.Fatal(err)
	}
	flat := prof.Flat()
	if len(flat) < 4 {
		t.Fatalf("profile has only %d functions", len(flat))
	}
	// Mode decision / SAD should be hot in any block-based encoder.
	names := map[string]bool{}
	for _, e := range flat[:4] {
		names[e.Name] = true
	}
	if !names["motion.SAD"] && !names["encoders.ModeDecision"] && !names["transform.SATD"] {
		t.Errorf("hottest functions %v do not include the expected kernels", names)
	}
	// Every instruction is on exactly one row: the rows add up to the
	// encode's count, the work outside any profiled function included.
	res, err := enc.Encode(context.Background(), c, encoders.Options{
		CRF: 30, Preset: 4, Threads: 1, NewWorkerCtx: func(int) *trace.Ctx { return trace.New() },
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum, root uint64
	for _, e := range flat {
		sum += e.Insts
		if e.Name == "(unprofiled)" {
			root = e.Insts
		}
	}
	if sum != res.Insts || root == 0 {
		t.Errorf("profile rows sum to %d with %d unprofiled, encode counted %d", sum, root, res.Insts)
	}
}

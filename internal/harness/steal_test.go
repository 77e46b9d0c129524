package harness

import (
	"context"
	"reflect"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/sched"
)

// invarianceExperiments is the subset the schedule-invariance matrix
// runs: together they cover every cell kind (fig1: stat, fig2a:
// counted, fig8: window + pipeline, fig12: schedule + stat) without
// the full suite's cost per matrix point.
var invarianceExperiments = []string{"fig1", "fig2a", "fig8", "fig12"}

// TestScheduleInvarianceMatrix is the core promise of the shard
// scheduler, pinned end to end: rendered tables are byte-identical at
// every worker count and steal seed — no cell value, ordering, or
// formatting may depend on which worker ran which shard, or on the
// victim-selection sequence. The seed is not an engine option: each
// matrix point hands RunAll a context carrying its own seeded pool,
// which runCells uses in place of building one.
func TestScheduleInvarianceMatrix(t *testing.T) {
	s := equivScale()
	configs := []struct {
		workers int
		seed    uint64
	}{
		{1, 0}, {4, 0}, {8, 0}, {4, 1977}, {8, 0xC0FFEE},
	}
	var want string
	for _, cfg := range configs {
		ResetCellCache()
		p := sched.NewPool(sched.Config{Workers: cfg.workers, Seed: cfg.seed})
		rep, err := RunAll(sched.WithPool(context.Background(), p), s, Options{
			Workers: cfg.workers, Experiments: invarianceExperiments,
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d seed=%#x: %v", cfg.workers, cfg.seed, err)
		}
		got := renderAll(rep)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					lo := i - 80
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("workers=%d seed=%#x diverges at byte %d:\nbase: %q\n got: %q",
						cfg.workers, cfg.seed, i, want[lo:i+40], got[lo:i+40])
				}
			}
			t.Fatalf("workers=%d seed=%#x: output length %d, want %d", cfg.workers, cfg.seed, len(got), len(want))
		}
	}
}

// TestShardedCellMatchesSerial pins shard-level determinism on the
// richest observable surface: a counted cell computed on a shard pool
// must equal the serially computed one field for field — including
// instruction counts, mix, per-worker attribution and the per-frame
// stage breakdown, the quantities most sensitive to merge order.
func TestShardedCellMatchesSerial(t *testing.T) {
	s := QuickScale()
	for _, fam := range []encoders.Family{encoders.SVTAV1, encoders.X264} {
		c := s.CountedCell(fam, "desktop", 35, 4)

		ResetCellCache()
		serial, _, err := RunCell(context.Background(), c)
		if err != nil {
			t.Fatalf("%s serial: %v", fam, err)
		}

		ResetCellCache()
		p := sched.NewPool(sched.Config{Workers: 4, Seed: 11})
		sharded, _, err := RunCell(sched.WithPool(context.Background(), p), c)
		p.Close()
		if err != nil {
			t.Fatalf("%s sharded: %v", fam, err)
		}

		a, b := serial.Enc, sharded.Enc
		if a.Insts != b.Insts {
			t.Errorf("%s: instructions differ: serial %d, sharded %d", fam, a.Insts, b.Insts)
		}
		if a.Mix != b.Mix {
			t.Errorf("%s: op mix differs:\nserial  %v\nsharded %v", fam, a.Mix, b.Mix)
		}
		if a.Bytes != b.Bytes || a.PSNR != b.PSNR || a.SSIM != b.SSIM {
			t.Errorf("%s: output differs: %d/%v/%v vs %d/%v/%v", fam, a.Bytes, a.PSNR, a.SSIM, b.Bytes, b.PSNR, b.SSIM)
		}
		if !reflect.DeepEqual(a.WorkerInsts, b.WorkerInsts) {
			t.Errorf("%s: per-worker instruction attribution differs:\nserial  %v\nsharded %v", fam, a.WorkerInsts, b.WorkerInsts)
		}
		if !reflect.DeepEqual(a.FrameStages, b.FrameStages) {
			t.Errorf("%s: per-frame stage breakdown differs", fam)
		}
		if !reflect.DeepEqual(a.FrameBytes, b.FrameBytes) {
			t.Errorf("%s: frame bytes differ:\nserial  %v\nsharded %v", fam, a.FrameBytes, b.FrameBytes)
		}
	}
}

// TestThreadsZeroSharesCacheEntry is the Threads:0 regression test: 0
// and 1 are the same encode everywhere (encoders treat 0 as the
// 1-thread default), so the memo cache must fold them onto one key —
// the second spelling is a hit, not a recomputation.
func TestThreadsZeroSharesCacheEntry(t *testing.T) {
	ResetCellCache()
	c1 := QuickScale().CountedCell(encoders.SVTAV1, "desktop", 30, 6)
	c1.Threads = 1
	r1, hit, err := RunCell(context.Background(), c1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first computation reported a cache hit")
	}
	c0 := c1
	c0.Threads = 0
	r0, hit, err := RunCell(context.Background(), c0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("Threads:0 recomputed what Threads:1 already cached")
	}
	if r0.Enc.Insts != r1.Enc.Insts || r0.Enc.Bytes != r1.Enc.Bytes {
		t.Errorf("Threads:0 result differs from Threads:1: %d/%d vs %d/%d",
			r0.Enc.Insts, r0.Enc.Bytes, r1.Enc.Insts, r1.Enc.Bytes)
	}
}

// TestShardedCancelDropsEntry extends the cancellation contract to the
// sharded path: aborting a counted cell running on a shard pool must
// not poison the memo cache — the next request recomputes and
// succeeds, and its result matches a never-cancelled run.
func TestShardedCancelDropsEntry(t *testing.T) {
	ResetCellCache()
	p := sched.NewPool(sched.Config{Workers: 2, Seed: 5})
	defer p.Close()
	c := QuickScale().CountedCell(encoders.Libaom, "desktop", 35, 4)

	ctx, cancel := context.WithCancel(sched.WithPool(context.Background(), p))
	cancel()
	if _, _, err := RunCell(ctx, c); err == nil {
		t.Fatal("pre-cancelled sharded cell did not error")
	}

	got, hit, err := RunCell(sched.WithPool(context.Background(), p), c)
	if err != nil {
		t.Fatalf("recompute after cancel: %v", err)
	}
	if hit {
		t.Error("cancelled computation left a cache entry behind")
	}
	ResetCellCache()
	want, _, err := RunCell(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Enc.Insts != want.Enc.Insts || got.Enc.Bytes != want.Enc.Bytes {
		t.Errorf("post-cancel result differs from clean run: %d/%d vs %d/%d",
			got.Enc.Insts, got.Enc.Bytes, want.Enc.Insts, want.Enc.Bytes)
	}
}

// TestCellCostOrdering sanity-checks the static cost table the SRPT
// policy and SJF admission read: heavier families, bigger grids and
// costlier kinds must rank in the obviously right order. (Absolute
// values are free to change; this pins only the ordering the scheduler
// depends on.)
func TestCellCostOrdering(t *testing.T) {
	s := QuickScale()
	x264 := s.CountedCell(encoders.X264, "game1", 35, 4)
	aom := s.CountedCell(encoders.Libaom, "game1", 35, 4)
	if !(cellCost(x264) < cellCost(aom)) {
		t.Errorf("cost(x264)=%d not below cost(libaom)=%d", cellCost(x264), cellCost(aom))
	}
	counted := s.CountedCell(encoders.SVTAV1, "game1", 35, 4)
	stat := s.StatCell(encoders.SVTAV1, "game1", 35, 4)
	if !(cellCost(counted) < cellCost(stat)) {
		t.Errorf("cost(counted)=%d not below cost(stat)=%d", cellCost(counted), cellCost(stat))
	}
	big := counted
	big.Div = counted.Div / 4
	if !(cellCost(counted) < cellCost(big)) {
		t.Errorf("cost at div=%d (%d) not below cost at div=%d (%d)", counted.Div, cellCost(counted), big.Div, cellCost(big))
	}
	if cellCost(Cell{Kind: CellCounted, Clip: "no-such-clip"}) == 0 {
		t.Error("unknown clip must cost a positive fallback, got 0")
	}
}

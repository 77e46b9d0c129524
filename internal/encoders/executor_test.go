package encoders

import (
	"context"
	"reflect"
	"testing"

	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// resultDiff names the Result fields in which a and b differ. Wall is
// host time and exempt; everything else is part of the determinism
// contract.
func resultDiff(a, b *Result) []string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	var fields []string
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if name != "Wall" && !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			fields = append(fields, name)
		}
	}
	return fields
}

// poolConfigs are the explicit pools every reference Result is checked
// against: narrower and wider than any Threads value, two seeds.
var poolConfigs = []sched.Config{
	{Workers: 1, Seed: 1}, {Workers: 4, Seed: 1}, {Workers: 4, Seed: 12345},
	{Workers: 8, Seed: 7}, {Workers: 8, Seed: 99},
}

// checkPoolsMatch encodes with opts on each of poolConfigs and requires
// a Result identical to ref.
func checkPoolsMatch(t *testing.T, enc Encoder, clip *video.Clip, opts Options, ref *Result) {
	t.Helper()
	for _, cfg := range poolConfigs {
		p := sched.NewPool(cfg)
		o := opts
		o.Pool = p
		got, err := enc.Encode(context.Background(), clip, o)
		p.Close()
		if err != nil {
			t.Fatalf("%s workers=%d seed=%d: %v", ref.Family, cfg.Workers, cfg.Seed, err)
		}
		if d := resultDiff(ref, got); d != nil {
			t.Errorf("%s workers=%d seed=%d: Result differs from the reference in %v (WorkerInsts %v vs %v)",
				ref.Family, cfg.Workers, cfg.Seed, d, ref.WorkerInsts, got.WorkerInsts)
		}
	}
}

// TestExecutorMatchesSerial pins the shard-handoff contract at the
// encoder level: an encode whose task graph runs on a shared
// pool returns a Result identical to the inline serial path — same
// bitstream, quality, instruction totals, mix, per-worker attribution
// and per-frame stage breakdown — at several worker counts and seeds.
func TestExecutorMatchesSerial(t *testing.T) {
	clip := testClip(t, "game1", 3, 16)
	for _, fam := range []Family{SVTAV1, X264, X265} {
		enc := MustNew(fam)
		opts := Options{CRF: 30, Preset: 3, KeepBitstream: true,
			NewWorkerCtx: func(int) *trace.Ctx { return trace.New() }}
		serial, err := enc.Encode(context.Background(), clip, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", fam, err)
		}
		checkPoolsMatch(t, enc, clip, opts, serial)
	}
}

// TestThreadedResultDeterministic pins that Threads > 1 is a count of
// attribution lanes, not a schedule: the same options return one
// Result run after run on the transient pool, and that Result equals
// the one any explicit pool produces. (The goroutine pool this
// replaced attributed work to whichever worker won the race, so
// WorkerInsts differed on every run.)
func TestThreadedResultDeterministic(t *testing.T) {
	clip := testClip(t, "game1", 3, 16)
	for _, fam := range []Family{SVTAV1, X264, X265} {
		enc := MustNew(fam)
		opts := Options{CRF: 30, Preset: 3, Threads: 4, KeepBitstream: true,
			NewWorkerCtx: func(int) *trace.Ctx { return trace.New() }}
		var first *Result
		for run := 0; run < 8; run++ {
			res, err := enc.Encode(context.Background(), clip, opts)
			if err != nil {
				t.Fatalf("%s run %d: %v", fam, run, err)
			}
			if len(res.WorkerInsts) != opts.Threads {
				t.Fatalf("%s run %d: %d attribution lanes, want %d", fam, run, len(res.WorkerInsts), opts.Threads)
			}
			if first == nil {
				first = res
			} else if d := resultDiff(first, res); d != nil {
				t.Fatalf("%s run %d: Result differs from run 0 in %v (WorkerInsts %v vs %v)",
					fam, run, d, first.WorkerInsts, res.WorkerInsts)
			}
		}
		checkPoolsMatch(t, enc, clip, opts, first)
	}
}

// TestExecutorCancellation pins that a cancelled sharded encode
// returns the context error and no result.
func TestExecutorCancellation(t *testing.T) {
	clip := testClip(t, "desktop", 3, 16)
	p := sched.NewPool(sched.Config{Workers: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	enc := MustNew(Libaom)
	_, err := enc.Encode(ctx, clip, Options{CRF: 30, Preset: 3, Pool: p})
	if err == nil {
		t.Fatal("cancelled sharded encode returned nil error")
	}
}

// TestThreadsZeroEqualsOne is the Threads:0 regression test at the
// encoder level: 0 means the 1-thread default everywhere, so both
// spellings must validate and produce identical results.
func TestThreadsZeroEqualsOne(t *testing.T) {
	clip := testClip(t, "game2", 2, 16)
	for _, fam := range []Family{SVTAV1, X264} {
		enc := MustNew(fam)
		zero, err := enc.Encode(context.Background(), clip, Options{CRF: 30, Preset: 3, Threads: 0})
		if err != nil {
			t.Fatalf("%s threads=0 rejected: %v", fam, err)
		}
		one, err := enc.Encode(context.Background(), clip, Options{CRF: 30, Preset: 3, Threads: 1})
		if err != nil {
			t.Fatalf("%s threads=1: %v", fam, err)
		}
		if zero.Bytes != one.Bytes || zero.PSNR != one.PSNR || zero.Insts != one.Insts {
			t.Errorf("%s: Threads 0 and 1 diverge: %d/%v/%d vs %d/%v/%d",
				fam, zero.Bytes, zero.PSNR, zero.Insts, one.Bytes, one.PSNR, one.Insts)
		}
	}
}

// TestCostHintOrdering pins the admission cost table's robust
// orderings: the paper's Fig.1 endpoints (x264 ≪ libaom — the 15×
// base ratio dominates any effort/CRF shaping), more pixels and more
// frames cost more, cheaper CRF costs more, and unknown families fall
// back to the most expensive band rather than the cheapest.
func TestCostHintOrdering(t *testing.T) {
	px, frames := 320*180, 4
	for preset := 0; preset <= 8; preset++ {
		fast := CostHint(X264, px, frames, 30, preset)
		slow := CostHint(Libaom, px, frames, 30, preset)
		if fast >= slow {
			t.Errorf("preset %d: CostHint(x264)=%d not below CostHint(libaom)=%d", preset, fast, slow)
		}
	}
	if CostHint(X264, 2*px, frames, 30, 4) <= CostHint(X264, px, frames, 30, 4) {
		t.Error("doubling pixels did not raise the cost")
	}
	if CostHint(X264, px, 2*frames, 30, 4) <= CostHint(X264, px, frames, 30, 4) {
		t.Error("doubling frames did not raise the cost")
	}
	if CostHint(SVTAV1, px, frames, 0, 4) <= CostHint(SVTAV1, px, frames, 63, 4) {
		t.Error("CRF 0 (most coefficients alive) must cost more than the max CRF")
	}
	if CostHint(Family("nope"), px, frames, 30, 4) < CostHint(Libaom, px, frames, 30, 4)/12 {
		t.Error("unknown family must land in the most expensive band")
	}
	if CostHint(X264, 0, 0, 0, 0) == 0 {
		t.Error("degenerate inputs must still cost at least 1")
	}
}

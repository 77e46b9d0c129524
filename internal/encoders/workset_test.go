package encoders

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"vcprof/internal/sched"
	"vcprof/internal/trace"
	"vcprof/internal/video"
)

// dropIdleSets empties the working-set free list, so the next encode
// of any geometry starts on a new set.
func dropIdleSets() {
	idleSets.mu.Lock()
	idleSets.sets = nil
	idleSets.mu.Unlock()
}

// outputBytes is what a Result holds that its encode allocated for the
// caller: the struct, the bitstream, and the per-frame and per-lane
// slices.
func outputBytes(res *Result) int {
	n := int(unsafe.Sizeof(*res)) + len(res.Bitstream)
	n += 8 * (cap(res.FrameBytes) + cap(res.QIndices) + cap(res.KeyFrames) +
		cap(res.IntraCosts) + cap(res.WorkerInsts))
	n += cap(res.FrameStages) * int(unsafe.Sizeof(trace.StageCounts{}))
	return n
}

// midPreset is the middle of enc's preset range.
func midPreset(enc Encoder) int {
	lo, hi, _ := enc.PresetRange()
	return (lo + hi) / 2
}

// warmSlack is what a warm encode may allocate beyond its outputs: the
// stream encoder and its toolset, the lanes' contexts a count-only
// encode asks NewWorkerCtx for, the scheduler's per-run state on a
// pool, and the malloc size classes that round every output up. It
// read 0.8–2.8 KB here, with or without the race detector, against
// outputs of 5.6–9.3 KB; the bound is that plus 1.2 KB.
const warmSlack = 4 << 10

// poolSlack is how much more a warm encode on a 2-worker pool may
// allocate than the same encode inline: the run's bookkeeping, whose
// allocation count does not grow with the graph (sched's
// TestRunGraphAllocsIndependentOfTasks) but whose tables do. It read
// 0.8–1.2 KB here.
const poolSlack = 2 << 10

// TestWarmEncodeAllocatesOnlyOutputs encodes a clip once and then
// again on the same options: the later encodes work in the set the
// first released, so they allocate their outputs and little else, on
// nil and count-only contexts, inline and on a 2-worker pool. An arm on
// the pool allocates at most poolSlack more than its inline twin.
func TestWarmEncodeAllocatesOnlyOutputs(t *testing.T) {
	clip := testClip(t, "cricket", 4, 12)
	pool := sched.NewPool(sched.Config{Workers: 2})
	defer pool.Close()
	count := func(int) *trace.Ctx { return trace.New() }
	for _, fam := range Families() {
		enc := MustNew(fam)
		inline := map[string]int{} // bytes of the inline arm, by context kind
		for _, arm := range []struct {
			name, ctx string
			newCtx    func(int) *trace.Ctx
			pool      *sched.Pool
		}{
			{"nil/inline", "nil", nil, nil},
			{"count/inline", "count", count, nil},
			{"nil/pool", "nil", nil, pool},
			{"count/pool", "count", count, pool},
		} {
			t.Run(string(fam)+"/"+arm.name, func(t *testing.T) {
				opts := Options{CRF: 20, Preset: midPreset(enc), Threads: 1, KeepBitstream: true, AnalyzeIntra: true,
					NewWorkerCtx: arm.newCtx, Pool: arm.pool}
				if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
					t.Fatal(err)
				}
				// The least of three warm encodes, so that a one-time
				// initialisation elsewhere in the process does not count.
				got, out := 0, 0
				for i := range 3 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					res, err := enc.Encode(context.Background(), clip, opts)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if n := int(after.TotalAlloc - before.TotalAlloc); i == 0 || n < got {
						got, out = n, outputBytes(res)
					}
				}
				t.Logf("%d B past outputs of %d B", got-out, out)
				if got > out+warmSlack {
					t.Errorf("warm encode allocated %d B, outputs are %d B: %d B past them, want at most %d",
						got, out, got-out, warmSlack)
				}
				if arm.pool == nil {
					inline[arm.ctx] = got
				} else if base, ok := inline[arm.ctx]; ok && got > base+poolSlack {
					t.Errorf("warm encode on the pool allocated %d B, %d B more than inline, want at most %d",
						got, got-base, poolSlack)
				}
			})
		}
	}
}

// memHash folds every memory access into a hash, so two encodes that
// touch the same addresses, with the same sizes and kinds, in the same
// order, hash equal.
type memHash struct {
	h uint64
	n int
}

func (m *memHash) Access(addr uint64, size int, store bool) {
	v := addr ^ uint64(size)<<48
	if store {
		v ^= 1 << 63
	}
	m.h = (m.h ^ v) * 1099511628211
	m.n++
}

// TestRecycledSetMatchesNewSet encodes clip B on a new working set, then
// clip A (other content and length, another family, the lookahead on)
// and B again, the second B on the set A released: both B encodes give
// the same Result, bitstream, counts and traced accesses.
func TestRecycledSetMatchesNewSet(t *testing.T) {
	clipA := testClip(t, "girl", 5, 12)
	clipB := testClip(t, "cricket", 4, 12)
	if clipA.Frames[0].Width() != clipB.Frames[0].Width() || clipA.Frames[0].Height() != clipB.Frames[0].Height() {
		t.Fatal("clips A and B must share a geometry")
	}
	pool := sched.NewPool(sched.Config{Workers: 2})
	defer pool.Close()
	fams := Families()
	for i, fam := range fams {
		encA, encB := MustNew(fams[(i+1)%len(fams)]), MustNew(fam)
		for _, arm := range []struct {
			name string
			pool *sched.Pool
			hook bool
		}{{"count/inline", nil, false}, {"hooked/inline", nil, true}, {"count/pool", pool, false}} {
			t.Run(string(fam)+"/"+arm.name, func(t *testing.T) {
				run := func(enc Encoder, clip *video.Clip, intra bool) (*Result, memHash) {
					t.Helper()
					var mh memHash
					opts := Options{CRF: 24, Preset: midPreset(enc), Threads: 1, KeepBitstream: true, AnalyzeIntra: intra,
						Pool: arm.pool, NewWorkerCtx: func(int) *trace.Ctx {
							tc := trace.New()
							if arm.hook {
								tc.AttachMemSink(&mh)
							}
							return tc
						}}
					res, err := enc.Encode(context.Background(), clip, opts)
					if err != nil {
						t.Fatal(err)
					}
					res.Wall = 0
					return res, mh
				}
				dropIdleSets()
				fresh, freshMem := run(encB, clipB, false)
				dropIdleSets()
				run(encA, clipA, true)
				recycled, recycledMem := run(encB, clipB, false)
				if !reflect.DeepEqual(fresh, recycled) {
					t.Errorf("B on a recycled set differs from B on a new set:\nnew      %d B, %d insts, mix %+v\nrecycled %d B, %d insts, mix %+v",
						fresh.Bytes, fresh.Insts, fresh.Mix, recycled.Bytes, recycled.Insts, recycled.Mix)
				}
				if freshMem != recycledMem {
					t.Errorf("traced accesses differ: new set %d (hash %x), recycled %d (hash %x)",
						freshMem.n, freshMem.h, recycledMem.n, recycledMem.h)
				}
				if arm.hook && freshMem.n == 0 {
					t.Error("the hooked encode traced no access")
				}
			})
		}
	}
}

// TestConcurrentEncodesShareTheFreeList runs encodes of one geometry
// on four goroutines at once, so sets are acquired and released
// concurrently; every encode equals the one run alone.
func TestConcurrentEncodesShareTheFreeList(t *testing.T) {
	clip := testClip(t, "cricket", 3, 12)
	enc := MustNew(X264)
	opts := Options{CRF: 26, Preset: 1, Threads: 1, KeepBitstream: true,
		NewWorkerCtx: func(int) *trace.Ctx { return trace.New() }}
	want, err := enc.Encode(context.Background(), clip, opts)
	if err != nil {
		t.Fatal(err)
	}
	want.Wall = 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := enc.Encode(context.Background(), clip, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got.Wall = 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("a concurrent encode differs from the one run alone: %d B, %d insts against %d B, %d insts",
						got.Bytes, got.Insts, want.Bytes, want.Insts)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleSetsBounded releases more sets than the free list keeps: it
// keeps the newest maxIdlePerGeometry of one geometry, drops the oldest
// when the idle bytes pass maxIdleBytes, and hands a set back out only
// for its own geometry.
func TestIdleSetsBounded(t *testing.T) {
	dropIdleSets()
	defer dropIdleSets()
	var sets []*workingSet
	for range maxIdlePerGeometry + 2 {
		sets = append(sets, acquireWorkingSet(64, 32))
	}
	for _, s := range sets {
		s.release()
	}
	if n := len(idleSets.sets); n != maxIdlePerGeometry {
		t.Fatalf("%d idle sets of one geometry, want %d", n, maxIdlePerGeometry)
	}
	if s := acquireWorkingSet(64, 32); s != sets[len(sets)-1] {
		t.Error("acquire did not return the set released last")
	}
	if s := acquireWorkingSet(96, 32); s.aw != 96 || len(s.pics) != 0 {
		t.Error("acquire of another geometry did not return a new set")
	}

	// Two sets of 18 MiB each: the second release passes maxIdleBytes and
	// drops the first, then the small sets still fit beside it.
	dropIdleSets()
	big := func() *workingSet {
		s := acquireWorkingSet(1024, 1024)
		for i := range 6 {
			s.picture(i, 64, 64)
		}
		return s
	}
	b1, b2 := big(), big()
	b1.release()
	b2.release()
	sets[0].release()
	idle := idleSets.sets
	if len(idle) != 2 || idle[0] != b2 || idle[1] != sets[0] {
		t.Fatalf("idle list after two 18 MiB releases and a small one: %d sets, want b2 then the small set", len(idle))
	}
	total := 0
	for _, s := range idle {
		total += s.size
	}
	if total > maxIdleBytes {
		t.Errorf("idle sets hold %d B, bound %d", total, maxIdleBytes)
	}
}

// BenchmarkEncodeWarm times a count-only encode of a small clip on a
// warm working set (one encode before the timer starts), inline, and
// reports what it allocates: its outputs and the per-encode task graph.
func BenchmarkEncodeWarm(b *testing.B) {
	clip := testClip(b, "cricket", 8, 12)
	for _, fam := range []Family{X264, SVTAV1} {
		b.Run(string(fam), func(b *testing.B) {
			enc := MustNew(fam)
			opts := Options{CRF: 30, Preset: midPreset(enc), Threads: 1,
				NewWorkerCtx: func(int) *trace.Ctx { return trace.New() }}
			if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(context.Background(), clip, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package perf

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vcprof/internal/encoders"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/video"
)

// statCell is one perf.Stat invocation of the reuse tests.
type statCell struct {
	fam  encoders.Family
	clip *video.Clip
	opts encoders.Options
}

func (c statCell) String() string { return string(c.fam) + "/" + c.clip.Meta.Name }

// reuseCells is a dozen bench-sized cells: every family on two clips,
// plus two more CRF points, so consecutive cells differ in footprint
// and leave different lines behind.
func reuseCells(t *testing.T) []statCell {
	clips := []*video.Clip{clip(t, "game1", 2, 20), clip(t, "cricket", 2, 20)}
	var cells []statCell
	for _, fam := range encoders.Families() {
		lo, hi := encoders.MustNew(fam).CRFRange()
		for _, c := range clips {
			cells = append(cells, statCell{fam, c, encoders.Options{CRF: (lo + hi) / 2, Preset: 5}})
		}
	}
	cells = append(cells,
		statCell{encoders.SVTAV1, clips[0], encoders.Options{CRF: 20, Preset: 6}},
		statCell{encoders.X264, clips[1], encoders.Options{CRF: 40, Preset: 5}})
	return cells
}

// modeled strips the one host-dependent field.
func modeled(c *Counters) Counters {
	m := *c
	m.WallSeconds = 0
	return m
}

// statFresh is Stat on a hierarchy built for this call alone, the
// reference the free list's reuse is compared against.
func statFresh(t *testing.T, c statCell) Counters {
	t.Helper()
	h, err := cache.NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	got, err := statOn(context.Background(), h, encoders.MustNew(c.fam), c.clip, c.opts)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return modeled(got)
}

// TestStatReusedEqualsFresh: no state leaks through the hierarchy free
// list. Every cell measured on a reused hierarchy — back to back in
// two orders, then from four goroutines at once — reports the counters
// it reports on a newly built one.
func TestStatReusedEqualsFresh(t *testing.T) {
	cells := reuseCells(t)
	want := make([]Counters, len(cells))
	for i, c := range cells {
		want[i] = statFresh(t, c)
	}
	check := func(t *testing.T, how string, i int) {
		c := cells[i]
		got, err := Stat(context.Background(), encoders.MustNew(c.fam), c.clip, c.opts)
		if err != nil {
			t.Errorf("%s %v: %v", how, c, err)
			return
		}
		if g := modeled(got); !reflect.DeepEqual(g, want[i]) {
			t.Errorf("%s %v: counters on a reused hierarchy\n%+v\non a new one\n%+v", how, c, g, want[i])
		}
	}
	for i := range cells {
		check(t, "forward", i)
	}
	for i := len(cells) - 1; i >= 0; i-- {
		check(t, "backward", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				check(t, "concurrent", (k*5+g*3)%len(cells))
			}
		}(g)
	}
	wg.Wait()
}

// abortingEncoder cancels its encode from inside: it hangs one more
// sink on the context Stat instruments and cancels after that sink has
// seen a fixed number of branches, so the encode stops at the next
// task boundary with the simulators part-way through a frame.
type abortingEncoder struct {
	encoders.Encoder
	after int
}

type cancelAfter struct {
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Branch(trace.PC, bool) {
	if c.left--; c.left == 0 {
		c.cancel()
	}
}

func (a abortingEncoder) Encode(ctx context.Context, clip *video.Clip, opts encoders.Options) (*encoders.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts.NewWorkerCtx(0).AttachBranchSink(&cancelAfter{left: a.after, cancel: cancel})
	return a.Encoder.Encode(ctx, clip, opts)
}

// TestStatAfterAbortedStat: a Stat cancelled mid-encode gives its
// hierarchy back (the pair below allocates no second one) and what it
// left in it does not reach the next Stat.
func TestStatAfterAbortedStat(t *testing.T) {
	c := reuseCells(t)[0]
	want := statFresh(t, c)
	enc := encoders.MustNew(c.fam)
	if _, err := Stat(context.Background(), enc, c.clip, c.opts); err != nil { // fill the free list
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Stat(context.Background(), abortingEncoder{enc, 20_000}, c.clip, c.opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Stat returned %v, want context.Canceled", err)
	}
	got, err := Stat(context.Background(), enc, c.clip, c.opts)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if g := modeled(got); !reflect.DeepEqual(g, want) {
		t.Errorf("Stat after an aborted Stat:\n%+v\non a new hierarchy\n%+v", g, want)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4<<20 {
		t.Errorf("aborted Stat + next Stat allocated %d bytes: the aborted run kept its hierarchy", grew)
	}
}

// TestWarmStatAllocatesNoTable: a stat cell borrows its hierarchy and
// its predictor, so once a cell has run, the next allocates what a
// counted encode of it allocates and a few KB of counters besides, and
// no table: not the TAGE the machine measures with (about 21 KB), nor a
// cache level. The least of three runs of each is compared, so that a
// one-time initialisation elsewhere in the process does not count.
func TestWarmStatAllocatesNoTable(t *testing.T) {
	c := reuseCells(t)[0]
	enc := encoders.MustNew(c.fam)
	counted := c.opts
	counted.Threads = 1
	counted.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
	least := func(f func() error) uint64 {
		var best uint64
		for i := range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := f()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n := m1.TotalAlloc - m0.TotalAlloc; i == 0 || n < best {
				best = n
			}
		}
		return best
	}
	stat := least(func() error { _, err := Stat(context.Background(), enc, c.clip, c.opts); return err })
	encode := least(func() error { _, err := enc.Encode(context.Background(), c.clip, counted); return err })
	t.Logf("%v: warm Stat %d bytes, counted encode %d", c, stat, encode)
	if stat > encode+4<<10 {
		t.Errorf("%v: a warm Stat allocated %d bytes, a counted encode %d: %d past it, want at most 4 KB",
			c, stat, encode, stat-encode)
	}
}

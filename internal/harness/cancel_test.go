package harness

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/video"
)

// TestRunCellPreCancelled: a cell requested under an already-cancelled
// context never computes and never lands in the cache.
func TestRunCellPreCancelled(t *testing.T) {
	ResetCellCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := equivScale()
	_, _, err := RunCell(ctx, s.CountedCell(encoders.SVTAV1, "desktop", 35, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := CellCacheStats(); st.Entries != 0 {
		t.Errorf("cancelled request left %d cache entries", st.Entries)
	}
}

// heavyCell is an operating point with many task boundaries to abort
// at and a second or two of host time to abort in. Under the race
// detector that is preset 4: preset 2 there is 17 s of cell arithmetic
// per full computation, and each test below runs one to the end.
func heavyCell(crf int) Cell {
	preset := 2
	if raceEnabled {
		preset = 4
	}
	return Cell{Kind: CellCounted, Family: encoders.SVTAV1, Clip: "game1",
		Frames: 4, Div: 12, CRF: crf, Preset: preset, Threads: 1}
}

// TestRunCellCancelMidFlight cancels a computation after it starts and
// checks (a) the requester gets a cancellation error promptly — the
// encode aborts between tasks, not at the end — and (b) the cache is
// not poisoned: a fresh request recomputes and succeeds.
func TestRunCellCancelMidFlight(t *testing.T) {
	ResetCellCache()
	cell := heavyCell(10)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := RunCell(ctx, cell)
		errc <- err
	}()
	// Wait until the computation has been admitted to the cache (one
	// miss), then cancel it.
	for CellCacheStats().Misses == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled encode did not abort")
	}

	// The aborted entry must be gone; a clean retry computes fully.
	res, hit, err := RunCell(context.Background(), cell)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if hit {
		t.Error("retry was served from cache; aborted entry was not dropped")
	}
	if res.Enc == nil || res.Enc.Bytes == 0 {
		t.Error("retry produced an empty result")
	}
}

// TestRunCellWaiterSurvivesRequesterCancel: a waiter that joined an
// in-flight computation whose original requester cancels must not
// inherit the cancellation — it retries under its own context and gets
// a real result.
func TestRunCellWaiterSurvivesRequesterCancel(t *testing.T) {
	ResetCellCache()
	cell := heavyCell(20)

	first, cancelFirst := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunCell(first, cell)
	}()
	for CellCacheStats().Misses == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	waiterErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := RunCell(context.Background(), cell)
		waiterErr <- err
	}()
	// Let the waiter attach, then cancel the original requester.
	time.Sleep(2 * time.Millisecond)
	cancelFirst()

	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter inherited the requester's cancellation: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("waiter never completed")
	}
	wg.Wait()
}

// TestCellCacheResetMidFlight: a cell that finishes after the cache was
// reset under it serves its requester but is not charged to the cache.
func TestCellCacheResetMidFlight(t *testing.T) {
	ResetCellCache()
	defer ResetCellCache()
	s := equivScale()
	errc := make(chan error, 1)
	go func() {
		_, _, err := RunCell(context.Background(), s.WindowCell(encoders.SVTAV1, "desktop", 35, 4))
		errc <- err
	}()
	for CellCacheStats().Misses == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ResetCellCache()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := CellCacheStats(); st.Entries != 0 || st.Weight != 0 {
		t.Errorf("after reset + finish: entries=%d weight=%d, want 0 and 0", st.Entries, st.Weight)
	}
}

// TestClipWaiterHonoursContext: a request whose ctx has ended stops
// waiting on another request's clip generation, and what that
// generation produces is still cached for the next caller.
func TestClipWaiterHonoursContext(t *testing.T) {
	ResetClipCache()
	defer ResetClipCache()
	// Full resolution, so generation outlasts the waiter's return by
	// orders of magnitude.
	const frames, div = 16, 1
	generated := make(chan *video.Clip, 1)
	go func() {
		clip, err := cachedClip(context.Background(), "game1", frames, div)
		if err != nil {
			t.Error(err)
		}
		generated <- clip
	}()
	for video.ClipMemoStats().Misses == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cachedClip(ctx, "game1", frames, div); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	select {
	case <-generated:
		t.Fatal("generation finished before the cancelled waiter returned; the test proved nothing")
	default:
	}
	first := <-generated
	again, err := cachedClip(context.Background(), "game1", frames, div)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || video.ClipMemoStats().Misses != 1 {
		t.Errorf("next caller regenerated the clip (%d generations)", video.ClipMemoStats().Misses)
	}
}

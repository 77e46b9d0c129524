package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waitFor spins until cond holds; every condition here is one another
// goroutine is already on its way to making true.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func intWeight(v int) int64 { return int64(v) }

// TestMemoExactlyOnce: 32 goroutines ask for one key while its
// computation is blocked; fn runs once, everyone gets its value, and
// exactly the computing caller reports a miss.
func TestMemoExactlyOnce(t *testing.T) {
	const n = 32
	m := New[string, int](100, nil)
	release := make(chan struct{})
	var calls, misses atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Do = %d, %v; want 7, nil", v, err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	waitFor(func() bool { return m.Stats().Hits == n-1 }) // all joined in flight
	close(release)
	wg.Wait()
	if calls.Load() != 1 || misses.Load() != 1 {
		t.Errorf("fn ran %d times, %d callers missed; want 1 and 1", calls.Load(), misses.Load())
	}
	if st := m.Stats(); st != (Stats{Hits: n - 1, Misses: 1, Entries: 1, Weight: 1, Cap: 100}) {
		t.Errorf("stats = %+v", st)
	}
}

// TestMemoCancellationNotCached: a computation that ends in its
// requester's cancellation (wrapped, as task labels do) leaves nothing
// behind, and the next request computes afresh.
func TestMemoCancellationNotCached(t *testing.T) {
	m := New[string, int](100, nil)
	ctx, cancel := context.WithCancel(context.Background())
	_, hit, err := m.Do(ctx, "k", func(ctx context.Context) (int, error) {
		cancel()
		return 0, fmt.Errorf("task 3: %w", ctx.Err())
	})
	if hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = hit %v, err %v; want a miss ending in context.Canceled", hit, err)
	}
	if st := m.Stats(); st.Entries != 0 || st.Weight != 0 {
		t.Fatalf("cancelled computation left %d entries, weight %d", st.Entries, st.Weight)
	}
	v, hit, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if v != 5 || hit || err != nil {
		t.Fatalf("retry = %d, hit %v, %v; want a fresh 5", v, hit, err)
	}
}

// TestMemoLiveWaiterRetries: a waiter that joined a computation whose
// requester then cancels does not inherit the cancellation — it
// computes under its own ctx.
func TestMemoLiveWaiterRetries(t *testing.T) {
	m := New[string, int](100, nil)
	first, cancelFirst := context.WithCancel(context.Background())
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := m.Do(first, "k", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
		firstDone <- err
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })

	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
		if err == nil && v != 9 {
			err = fmt.Errorf("waiter got %d, want 9", v)
		}
		waiterDone <- err
	}()
	waitFor(func() bool { return m.Stats().Hits == 1 }) // the waiter is attached
	cancelFirst()
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Errorf("requester err = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter inherited the requester's fate: %v", err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want the waiter's recomputation resident", st)
	}
}

// TestMemoWaiterAbandons: a waiter whose own ctx ends stops waiting
// while the computation is still blocked, and the computation's result
// is kept for the next caller all the same.
func TestMemoWaiterAbandons(t *testing.T) {
	m := New[string, int](100, nil)
	release := make(chan struct{})
	computed := make(chan struct{})
	go func() {
		defer close(computed)
		m.Do(context.Background(), "k", func(context.Context) (int, error) {
			<-release
			return 3, nil
		})
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := m.Do(ctx, "k", func(context.Context) (int, error) {
		t.Error("a joined waiter ran fn")
		return 0, nil
	})
	if !hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = hit %v, err %v; want a hit ending in context.Canceled", hit, err)
	}
	close(release)
	<-computed
	v, hit, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return -1, nil })
	if v != 3 || !hit || err != nil {
		t.Fatalf("next caller = %d, hit %v, %v; want the cached 3", v, hit, err)
	}
}

// TestMemoErrorsCached: an error that is not a cancellation is a
// result like any other.
func TestMemoErrorsCached(t *testing.T) {
	m := New[string, int](100, nil)
	boom := errors.New("boom")
	calls := 0
	fn := func(context.Context) (int, error) { calls++; return 0, boom }
	for i := 0; i < 3; i++ {
		if _, hit, err := m.Do(context.Background(), "k", fn); err != boom || hit != (i > 0) {
			t.Fatalf("call %d: hit %v, err %v", i, hit, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
}

// TestMemoResetMidFlight: a computation that outlives a Reset serves
// its caller but is neither kept nor charged.
func TestMemoResetMidFlight(t *testing.T) {
	m := New[string](100, intWeight)
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, _, _ := m.Do(context.Background(), "k", func(context.Context) (int, error) {
			<-release
			return 40, nil
		})
		done <- v
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })
	m.Reset()
	close(release)
	if v := <-done; v != 40 {
		t.Errorf("caller got %d, want 40", v)
	}
	if st := m.Stats(); st != (Stats{Cap: 100}) {
		t.Errorf("stats after reset + finish = %+v, want empty", st)
	}
}

// TestMemoBoundedLRU: finished values are charged by weigh and evicted
// least recently used first; a hit counts as a use.
func TestMemoBoundedLRU(t *testing.T) {
	m := New[string](10, intWeight)
	calls := map[string]int{}
	do := func(key string, v int) {
		t.Helper()
		got, _, err := m.Do(context.Background(), key, func(context.Context) (int, error) {
			calls[key]++
			return v, nil
		})
		if got != v || err != nil {
			t.Fatalf("Do(%s) = %d, %v; want %d", key, got, err, v)
		}
	}
	do("a", 4)
	do("b", 4)
	do("a", 4) // touch: b is now the eviction candidate
	do("c", 4)
	if st := m.Stats(); st.Entries != 2 || st.Weight != 8 {
		t.Fatalf("stats = %+v, want 2 entries of weight 8", st)
	}
	do("a", 4)
	do("b", 4)
	if calls["a"] != 1 || calls["b"] != 2 {
		t.Errorf("computations a=%d b=%d, want 1 and 2 (b was evicted, a kept)", calls["a"], calls["b"])
	}
}

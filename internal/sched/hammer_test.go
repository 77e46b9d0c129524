package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHammerStealVsPop floods a wide pool with many concurrent graphs
// of mixed costs so pops and steals both fire while claims race. Run under -race this is the steal-vs-pop contention tripwire;
// the assertions pin exactly-once execution and full completion.
func TestHammerStealVsPop(t *testing.T) {
	p := NewPool(Config{Workers: 8, Seed: 42})
	defer p.Close()
	const graphs = 24
	var wg sync.WaitGroup
	gs := make([]*testGraph, graphs)
	for i := 0; i < graphs; i++ {
		n := 16 + (i%5)*16
		deps := make([][]int, n)
		costs := make([]uint64, n)
		for j := range deps {
			if j > 0 && j%3 == 0 {
				deps[j] = []int{j - 1}
			}
			costs[j] = uint64(1 + (i*j)%97)
		}
		g := newTestGraph(deps, costs)
		g.run = func(context.Context, int, int) error {
			runtime.Gosched() // widen the race window
			return nil
		}
		gs[i] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.RunGraph(context.Background(), g); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var total int
	for i, g := range gs {
		for task, c := range g.claims {
			if c != 1 {
				t.Fatalf("graph %d task %d claimed %d times", i, task, c)
			}
		}
		total += len(g.claims)
	}
	st := p.Stats()
	if st.Tasks < uint64(total) {
		t.Errorf("pool executed %d tasks, want >= %d", st.Tasks, total)
	}
}

// TestHammerCancelMidSteal races cancellation against stealing: many
// graphs are cancelled at random points mid-flight while a wide pool
// churns through them. The contract under test: RunGraph never returns
// while one of its tasks is executing, and no task starts afterwards —
// no orphaned shards.
func TestHammerCancelMidSteal(t *testing.T) {
	p := NewPool(Config{Workers: 8, Seed: 7})
	defer p.Close()
	const rounds = 32
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n := 48
			g := newTestGraph(chain(n), nil)
			var inFlight, returned atomic.Int32
			g.run = func(ctx context.Context, task, _ int) error {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				if returned.Load() != 0 {
					t.Error("task started after RunGraph returned")
				}
				if task == i%17 {
					cancel()
				}
				runtime.Gosched()
				return ctx.Err()
			}
			err := p.RunGraph(ctx, g)
			returned.Store(1)
			if f := inFlight.Load(); f != 0 {
				t.Errorf("RunGraph returned with %d tasks still executing", f)
			}
			if err == nil {
				t.Error("cancelled run returned nil error")
			} else if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		}(i)
	}
	wg.Wait()
}

// TestHammerNestedForkJoinStorm nests fork-joins from every task of
// every outer graph, on pools of several widths including 1: the
// helper-loop path (the calling worker executing other runs' tasks
// while its fork drains) is the deadlock-prone one, so this is run
// with a watchdog.
func TestHammerNestedForkJoinStorm(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(Config{Workers: workers, Seed: uint64(workers)})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outer := newTestGraph(make([][]int, 4), nil)
					outer.run = func(ctx context.Context, task, worker int) error {
						inner := newTestGraph(chain(5), nil)
						return p.RunGraph(ctx, inner)
					}
					if err := p.RunGraph(context.Background(), outer); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested fork-join storm deadlocked", workers)
		}
		p.Close()
	}
}

// TestNoStarvationWhileWorkHangs is the starvation watchdog: one task
// blocks a worker indefinitely (until released) while independent work
// keeps arriving — the remaining workers must keep draining it. A
// worker idling while any run holds ready tasks would time this out.
func TestNoStarvationWhileWorkHangs(t *testing.T) {
	p := NewPool(Config{Workers: 4, Seed: 9})
	defer p.Close()
	release := make(chan struct{})
	blocker := newTestGraph(make([][]int, 1), []uint64{1 << 40})
	blocker.run = func(context.Context, int, int) error {
		<-release
		return nil
	}
	blockerDone := make(chan error, 1)
	go func() { blockerDone <- p.RunGraph(context.Background(), blocker) }()

	// With one worker captured, 30 further graphs must still complete.
	deadline := time.After(30 * time.Second)
	for i := 0; i < 30; i++ {
		g := newTestGraph(make([][]int, 8), nil)
		done := make(chan error, 1)
		go func() { done <- p.RunGraph(context.Background(), g) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("independent work starved behind a blocked worker")
		}
	}
	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
}

// TestHammerGraphsAndSeedsAgree runs one moderately tangled graph many
// times across seeds and worker counts concurrently with itself; every
// instance must complete every task exactly once. This is the raced
// version of TestDeterminismAcrossWorkersAndSeeds.
func TestHammerGraphsAndSeedsAgree(t *testing.T) {
	var wg sync.WaitGroup
	for _, workers := range []int{2, 4} {
		for seed := uint64(1); seed <= 4; seed++ {
			wg.Add(1)
			go func(workers int, seed uint64) {
				defer wg.Done()
				p := NewPool(Config{Workers: workers, Seed: seed})
				defer p.Close()
				n := 60
				deps := make([][]int, n)
				for j := 2; j < n; j++ {
					deps[j] = []int{j - 2}
				}
				g := newTestGraph(deps, nil)
				if err := p.RunGraph(context.Background(), g); err != nil {
					t.Error(err)
					return
				}
				for task, c := range g.claims {
					if c != 1 {
						t.Errorf("workers=%d seed=%d: task %d claimed %d times", workers, seed, task, c)
					}
				}
			}(workers, seed)
		}
	}
	wg.Wait()
}

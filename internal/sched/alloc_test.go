package sched

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// treeGraph is a task DAG that allocates nothing when run: task i
// depends on task i-1 and on task i/2, so early tasks have many
// dependents and the ready set is wider than the pool.
type treeGraph struct{ deps [][]int }

func newTreeGraph(n int) *treeGraph {
	g := &treeGraph{deps: make([][]int, n)}
	for i := 1; i < n; i++ {
		g.deps[i] = []int{i - 1}
		if h := i / 2; h != i-1 {
			g.deps[i] = append(g.deps[i], h)
		}
	}
	return g
}

func (g *treeGraph) NumTasks() int                       { return len(g.deps) }
func (g *treeGraph) Deps(i int) []int                    { return g.deps[i] }
func (g *treeGraph) Cost(int) uint64                     { return 1 }
func (g *treeGraph) Label(int) string                    { return "tree" }
func (g *treeGraph) Run(context.Context, int, int) error { return nil }

// runGraphAllocs is the allocation count of one RunGraph of an n-task
// treeGraph on p, after AllocsPerRun's warm-up run.
func runGraphAllocs(t *testing.T, p *Pool, n int) float64 {
	t.Helper()
	g := newTreeGraph(n)
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		if e := p.RunGraph(context.Background(), g); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestRunGraphAllocsIndependentOfTasks pins that a run's bookkeeping
// costs a fixed number of allocations: RunGraph on a 2-worker pool
// allocates as often for 512 tasks as for 16, give or take
// runGraphAllocSlack.
func TestRunGraphAllocsIndependentOfTasks(t *testing.T) {
	// Mallocs is process-wide, so a runtime allocation that lands
	// inside one measurement (a timer, a goroutine's stack) can tip the
	// average by one.
	const runGraphAllocSlack = 2
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	small := runGraphAllocs(t, p, 16)
	large := runGraphAllocs(t, p, 512)
	if large > small+runGraphAllocSlack {
		t.Errorf("RunGraph allocates %.1f times for 512 tasks and %.1f for 16: want equal within %d",
			large, small, runGraphAllocSlack)
	}
	t.Logf("allocs per RunGraph: %.1f (16 tasks), %.1f (512 tasks)", small, large)
}

// TestDependentsTableMatchesLists checks the flat dependents table
// against per-task lists built by appending, on random topologically
// numbered graphs with repeated and empty dependency lists.
func TestDependentsTableMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 64, 300} {
		deps := make([][]int, n)
		for i := 1; i < n; i++ {
			for range rng.Intn(4) {
				deps[i] = append(deps[i], rng.Intn(i))
			}
		}
		r, err := newRun(context.Background(), newTestGraph(deps, nil), 2)
		if err != nil {
			t.Fatal(err)
		}
		r.cancel()
		want := make([][]int32, n)
		for i, ds := range deps {
			for _, d := range ds {
				want[d] = append(want[d], int32(i))
			}
		}
		for task := range n {
			if got := r.dependents(task); !slices.Equal(got, want[task]) {
				t.Fatalf("n=%d: dependents of task %d are %v, want %v", n, task, got, want[task])
			}
			if got := r.indeg[task]; got != int32(len(deps[task])) {
				t.Fatalf("n=%d: task %d has in-degree %d, want %d", n, task, got, len(deps[task]))
			}
		}
	}
}

// BenchmarkRunGraph runs a treeGraph of 16 and of 512 no-op tasks on a
// 2-worker pool: the scheduler's own cost per run, with its
// allocations.
func BenchmarkRunGraph(b *testing.B) {
	for _, n := range []int{16, 512} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			p := NewPool(Config{Workers: 2})
			defer p.Close()
			g := newTreeGraph(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.RunGraph(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

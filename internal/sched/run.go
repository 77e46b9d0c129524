package sched

import (
	"context"
	"fmt"
)

// run is the pool-side bookkeeping for one RunGraph call.
type run struct {
	g      Graph
	ctx    context.Context
	cancel context.CancelFunc
	seq    uint64

	n     int
	indeg []int32
	// The dependents of task t are deps[depOff[t]:depOff[t+1]], in task
	// order: one flat table for the whole graph.
	depOff []int32
	deps   []int32
	home   []int32 // worker that readied the task: a pop if it runs it, else a steal
	ready  []int32 // ready stack (LIFO): every ready, unclaimed task, newest on top
	// wctx[w] is ctx marked as running on worker w (workerCtx), made
	// when worker w first runs one of the run's tasks.
	wctx []context.Context

	remaining uint64 // cost of tasks not yet done
	running   int
	done      int
	firstErr  error
	finished  bool
	doneCh    chan struct{}
}

// newRun validates the graph's topological numbering and builds the
// dependence bookkeeping for a pool of the given width. Its allocations
// do not grow with the number of tasks.
func newRun(ctx context.Context, g Graph, workers int) (*run, error) {
	n := g.NumTasks()
	edges := 0
	for i := 0; i < n; i++ {
		deps := g.Deps(i)
		for _, d := range deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("sched: task %d (%s) depends on task %d: graphs must be topologically numbered", i, g.Label(i), d)
			}
		}
		edges += len(deps)
	}
	rctx, cancel := context.WithCancel(ctx)
	// One allocation holds every int32 table; the ready stack never
	// outgrows n, as each task is readied once.
	ints := make([]int32, 4*n+1+edges)
	r := &run{
		g: g, ctx: rctx, cancel: cancel, n: n,
		indeg:  ints[:n:n],
		home:   ints[n : 2*n : 2*n],
		ready:  ints[2*n : 2*n : 3*n],
		depOff: ints[3*n : 4*n+1 : 4*n+1],
		deps:   ints[4*n+1:],
		wctx:   make([]context.Context, workers),
		doneCh: make(chan struct{}),
	}
	// Count each task's dependents into depOff[d+1], turn the counts
	// into start offsets, fill the table advancing depOff[d] past each
	// entry, and shift the offsets back into place.
	for i := 0; i < n; i++ {
		deps := g.Deps(i)
		for _, d := range deps {
			r.depOff[d+1]++
		}
		r.indeg[i] = int32(len(deps))
		r.remaining += r.cost(i)
	}
	for t := 0; t < n; t++ {
		r.depOff[t+1] += r.depOff[t]
	}
	for i := 0; i < n; i++ {
		for _, d := range g.Deps(i) {
			r.deps[r.depOff[d]] = int32(i)
			r.depOff[d]++
		}
	}
	copy(r.depOff[1:], r.depOff[:n])
	r.depOff[0] = 0
	return r, nil
}

// dependents returns the tasks that depend on t, in task order.
func (r *run) dependents(t int) []int32 {
	return r.deps[r.depOff[t]:r.depOff[t+1]]
}

// workerCtx returns the run's context marked as running on pool p's
// worker w, made on w's first task of the run. Only worker w's
// goroutine executes tasks as worker w, in its own loop or in the
// helper loop of a RunGraph nested in one of its tasks, so slot w
// needs no lock.
func (r *run) workerCtx(p *Pool, w int) context.Context {
	if r.wctx[w] == nil {
		r.wctx[w] = withWorker(r.ctx, p, w)
	}
	return r.wctx[w]
}

// cost returns the task's cost estimate, clamped to at least 1 so
// remaining-work comparisons always make progress.
func (r *run) cost(t int) uint64 {
	if c := r.g.Cost(t); c > 0 {
		return c
	}
	return 1
}

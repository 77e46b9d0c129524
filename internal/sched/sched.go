// Package sched is the shard scheduler: a pool of standing workers
// that executes task graphs below the cell boundary. The harness
// engine submits whole cell grids as graphs; a counted encode running
// inside a pool worker hands its frame/slice task graph to the same
// pool (nested fork-join), so one heavy cell no longer monopolizes a
// worker while cheap work queues behind it — the scheduler interleaves
// shards of every active graph.
//
// Scheduling policy. A ready task lives in one place: its graph run's
// ready stack. A free worker claims the newest ready task of the
// lightest active run — the run with the least expected remaining
// work. That is shortest-expected-remaining-work-first at shard
// granularity: light graphs effectively preempt heavy ones at every
// task boundary, which is what kills the tail on oversubscribed hosts.
// The stack's LIFO order is the locality preference: a completing
// task pushes its dependents on top, where the worker that completed
// it, free again at once, usually finds them first. Ties between runs
// are broken by a per-worker seeded PRNG, so distinct seeds explore
// distinct interleavings — the schedule-invariance tests run several.
//
// Determinism. The pool decides only *when and where* a task runs,
// never *what it computes*: graphs encode every true dependence, each
// task is claimed exactly once (popped off its run's stack under the
// pool mutex), and results are assembled by task index. Tables,
// traces and digests are therefore byte-identical at any worker
// count, under any interleaving and any seed — the property the
// harness test wall pins against golden files.
//
// All queue state sits under one pool mutex. At shard granularity
// (tasks are superblock rows, segments, tiles — hundreds of
// microseconds to milliseconds of modeled work) the lock is
// effectively uncontended; the tail-latency win comes from the
// scheduling policy, not from lock-freedom.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by RunGraph on a pool that has been closed.
var ErrClosed = errors.New("sched: pool closed")

// Config sizes a Pool.
type Config struct {
	// Workers is the number of standing worker goroutines (<=0 means 1).
	Workers int
	// Seed seeds the per-worker tie-break PRNGs (0 means 1).
	// Any seed yields byte-identical graph results; the knob exists so
	// the invariance is testable.
	Seed uint64
	// Observer, when non-nil, receives one event per executed task,
	// after the task body returns and outside the pool lock. For
	// per-shard trace spans; must be safe for concurrent use.
	Observer func(TaskEvent)
}

// TaskEvent describes one executed task for observation.
type TaskEvent struct {
	Worker int    // worker that ran the task
	Label  string // graph's task label
	Cost   uint64 // graph's cost estimate for the task
	Stolen bool   // readied by another worker than the one that ran it
}

// Graph is a task DAG the pool can execute. Tasks are numbered 0..n-1
// in a topological order: every dependency index is smaller than the
// task's own index (the builders' insertion order satisfies this).
// Run is called exactly once per task, after all its dependencies
// completed successfully, with the claiming worker's id in [0,
// Workers()); distinct tasks may run concurrently on distinct workers.
type Graph interface {
	NumTasks() int
	Deps(i int) []int
	// Cost estimates the task's relative work in arbitrary units (0 is
	// treated as 1). Costs steer the shortest-remaining-first policy
	// and never affect results.
	Cost(i int) uint64
	Label(i int) string
	Run(ctx context.Context, task, worker int) error
}

// Pool is the shard worker pool. Safe for concurrent use.
type Pool struct {
	workers  int
	seed     uint64
	observer func(TaskEvent)

	mu     sync.Mutex
	cond   *sync.Cond
	runs   []*run
	runSeq uint64
	closed bool
	wg     sync.WaitGroup

	stats poolStats
}

// poolStats are the pool's volatile scheduling counters (atomics so
// Stats needs no lock; mirrored into the process-wide obs counters).
type poolStats struct {
	tasks  atomic.Uint64
	graphs atomic.Uint64
	pops   atomic.Uint64
	steals atomic.Uint64
	parks  atomic.Uint64
}

// Stats is a point-in-time snapshot of a pool's scheduling counters.
type Stats struct {
	Workers int
	Tasks   uint64 // tasks executed (skipped-after-cancel included)
	Graphs  uint64 // graphs completed
	Pops    uint64 // tasks run by the worker that readied them
	Steals  uint64 // tasks run by another worker than the one that readied them
	Parks   uint64 // times a worker went idle
	Active  int    // graphs currently running
	Queued  int    // ready, unclaimed tasks
}

// NewPool starts a pool with cfg.Workers standing workers.
func NewPool(cfg Config) *Pool {
	n := cfg.Workers
	if n < 1 {
		n = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Pool{workers: n, seed: seed, observer: cfg.Observer}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < n; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Workers reports the pool's worker count; task Run worker arguments
// are always in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// Stats snapshots the scheduling counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers: p.workers,
		Tasks:   p.stats.tasks.Load(),
		Graphs:  p.stats.graphs.Load(),
		Pops:    p.stats.pops.Load(),
		Steals:  p.stats.steals.Load(),
		Parks:   p.stats.parks.Load(),
	}
	p.mu.Lock()
	s.Active = len(p.runs)
	for _, r := range p.runs {
		s.Queued += len(r.ready)
	}
	p.mu.Unlock()
	return s
}

// Close stops the standing workers after all active graphs drain and
// waits for them to exit. RunGraph calls that raced with Close still
// complete; calls after Close fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// workerLoop is one standing worker: it runs the shared loop until
// the pool is closed and drained.
func (p *Pool) workerLoop(w int) {
	defer p.wg.Done()
	rng := splitmix{state: p.seed ^ (uint64(w)+1)*0x9E3779B97F4A7C15}
	p.loop(w, &rng, nil)
}

// loop is the take–execute–park loop every worker runs: claim a task
// and execute it, or park when nothing is claimable. It returns once
// until has finished, or, for a nil until, once the pool is closed and
// no run is left.
func (p *Pool) loop(w int, rng *splitmix, until *run) {
	p.mu.Lock()
	for !p.doneLocked(until) {
		if r, t := p.takeLocked(rng); r != nil {
			p.mu.Unlock()
			p.execute(r, t, w)
			p.mu.Lock()
			continue
		}
		p.stats.parks.Add(1)
		obsParks.Add(1)
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// doneLocked reports whether loop may return for until. Caller
// holds the pool mutex.
func (p *Pool) doneLocked(until *run) bool {
	if until != nil {
		return until.finished
	}
	return p.closed && len(p.runs) == 0
}

// execute runs one claimed task and completes it, counting a pop when
// w readied the task and a steal otherwise. Called without the pool
// lock: the task's home was written before its claim and is not
// written again.
func (p *Pool) execute(r *run, t, w int) {
	err := r.ctx.Err()
	if err == nil {
		err = r.g.Run(r.workerCtx(p, w), t, w)
	}
	p.stats.tasks.Add(1)
	obsTasks.Add(1)
	stolen := r.home[t] != int32(w)
	if stolen {
		p.stats.steals.Add(1)
		obsSteals.Add(1)
	} else {
		p.stats.pops.Add(1)
		obsPops.Add(1)
	}
	if p.observer != nil {
		p.observer(TaskEvent{Worker: w, Label: r.g.Label(t), Cost: r.cost(t), Stolen: stolen})
	}
	p.complete(r, t, w, err)
}

// RunGraph executes g to completion and returns the first task error,
// or ctx's error if the run was cancelled. Calls block until every
// started task has settled — no task of g runs after RunGraph returns.
// When called from inside a pool task (fork-join nesting), the calling
// worker keeps executing tasks — of this graph or any other — while it
// waits, so nesting cannot deadlock the pool.
func (p *Pool) RunGraph(ctx context.Context, g Graph) error {
	n := g.NumTasks()
	if n == 0 {
		return ctx.Err()
	}
	r, err := newRun(ctx, g, p.workers)
	if err != nil {
		return err
	}
	defer r.cancel()
	nestedW, nested := workerFrom(ctx, p)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.runSeq++
	r.seq = p.runSeq
	p.runs = append(p.runs, r)
	home := 0
	if nested {
		home = nestedW
	}
	for i := 0; i < n; i++ {
		if r.indeg[i] == 0 {
			p.enqueueLocked(r, int32(i), home)
			if !nested {
				home = (home + 1) % p.workers // sources count as readied by each worker in turn
			}
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if nested {
		// Helper loop: keep the worker productive while its fork is in
		// flight. It may execute tasks of any run; recursion depth is
		// bounded by the number of active runs.
		rng := splitmix{state: p.seed ^ (uint64(nestedW)+1)*0xBF58476D1CE4E5B9 ^ r.seq}
		p.loop(nestedW, &rng, r)
	} else {
		<-r.doneCh
	}
	if r.firstErr != nil {
		return r.firstErr
	}
	return ctx.Err()
}

// complete finishes one executed (or skipped) task: record the error,
// push the dependents it readies onto the run's ready stack as readied
// by worker w, and close the run when its last task settles.
func (p *Pool) complete(r *run, t, w int, err error) {
	p.mu.Lock()
	r.running--
	r.done++
	if c := r.cost(t); c <= r.remaining {
		r.remaining -= c
	} else {
		r.remaining = 0
	}
	// The error is kept verbatim — graphs label their own failures —
	// and cancels the run so remaining tasks drain as skips.
	if err != nil && r.firstErr == nil {
		r.firstErr = err
		r.cancel()
	}
	for _, dep := range r.dependents(t) {
		r.indeg[dep]--
		if r.indeg[dep] == 0 {
			p.enqueueLocked(r, dep, w)
		}
	}
	if r.done == r.n && r.running == 0 {
		r.finished = true
		for i, cand := range p.runs {
			if cand == r {
				p.runs = append(p.runs[:i], p.runs[i+1:]...)
				break
			}
		}
		p.stats.graphs.Add(1)
		obsGraphs.Add(1)
		close(r.doneCh)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// splitmix is splitmix64, the repo's standard tiny deterministic PRNG.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

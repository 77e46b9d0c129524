package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// testGraph is a programmable task DAG for the scheduler tests: deps
// and costs are declared up front, execution appends to a shared log
// under its own lock, and per-task hooks can block, fail, or fork
// nested graphs.
type testGraph struct {
	deps  [][]int
	costs []uint64
	run   func(ctx context.Context, task, worker int) error

	mu     sync.Mutex
	order  []int
	claims []int32
}

func newTestGraph(deps [][]int, costs []uint64) *testGraph {
	return &testGraph{deps: deps, costs: costs, claims: make([]int32, len(deps))}
}

func (g *testGraph) NumTasks() int      { return len(g.deps) }
func (g *testGraph) Deps(i int) []int   { return g.deps[i] }
func (g *testGraph) Label(i int) string { return fmt.Sprintf("t%d", i) }
func (g *testGraph) Cost(i int) uint64 {
	if g.costs == nil {
		return 1
	}
	return g.costs[i]
}

func (g *testGraph) Run(ctx context.Context, task, worker int) error {
	atomic.AddInt32(&g.claims[task], 1)
	g.mu.Lock()
	g.order = append(g.order, task)
	g.mu.Unlock()
	if g.run != nil {
		return g.run(ctx, task, worker)
	}
	return nil
}

// chain is 0 → 1 → ... → n-1.
func chain(n int) [][]int {
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		deps[i] = []int{i - 1}
	}
	return deps
}

func TestRunGraphRespectsDependencies(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(Config{Workers: workers})
		// Diamond fan: 0 → {1,2,3} → 4.
		g := newTestGraph([][]int{nil, {0}, {0}, {0}, {1, 2, 3}}, nil)
		if err := p.RunGraph(context.Background(), g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p.Close()
		pos := make([]int, len(g.deps))
		for i, task := range g.order {
			pos[task] = i
		}
		for task, deps := range g.deps {
			for _, d := range deps {
				if pos[d] > pos[task] {
					t.Errorf("workers=%d: task %d ran before its dependency %d (order %v)", workers, task, d, g.order)
				}
			}
		}
	}
}

func TestRunGraphClaimsExactlyOnce(t *testing.T) {
	p := NewPool(Config{Workers: 8})
	defer p.Close()
	// Wide independent fan to maximize claim contention.
	g := newTestGraph(make([][]int, 200), nil)
	if err := p.RunGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	for i, c := range g.claims {
		if c != 1 {
			t.Errorf("task %d claimed %d times, want exactly 1", i, c)
		}
	}
}

func TestRunGraphErrorVerbatimAndCancels(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()
	boom := errors.New("task 3 exploded")
	g := newTestGraph(chain(10), nil)
	g.run = func(_ context.Context, task, _ int) error {
		if task == 3 {
			return boom
		}
		return nil
	}
	err := p.RunGraph(context.Background(), g)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	if err.Error() != boom.Error() {
		t.Errorf("error was wrapped: %q, want verbatim %q", err, boom)
	}
	// The chain cancels at the failure: 4..9 never ran.
	for task := 4; task < 10; task++ {
		if g.claims[task] != 0 {
			t.Errorf("task %d ran after task 3 failed", task)
		}
	}
}

func TestRunGraphContextCancel(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	g := newTestGraph(chain(50), nil)
	g.run = func(_ context.Context, task, _ int) error {
		if task == 5 {
			cancel()
		}
		return nil
	}
	if err := p.RunGraph(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// No task may start after RunGraph returned (the no-orphaned-shards
	// contract); the run drains its remaining tasks as skips.
	got := atomic.LoadInt32(&g.claims[49])
	if got != 0 {
		t.Errorf("tail task ran despite cancellation")
	}
}

func TestRunGraphPreCancelled(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := newTestGraph(chain(4), nil)
	if err := p.RunGraph(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range g.claims {
		if c != 0 {
			t.Errorf("task %d ran under a pre-cancelled context", i)
		}
	}
}

func TestRunGraphEmptyAndBadNumbering(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	if err := p.RunGraph(context.Background(), newTestGraph(nil, nil)); err != nil {
		t.Errorf("empty graph: %v", err)
	}
	// A forward dependency violates topological numbering.
	bad := newTestGraph([][]int{{1}, nil}, nil)
	if err := p.RunGraph(context.Background(), bad); err == nil {
		t.Error("forward-dependency graph was accepted")
	}
	selfish := newTestGraph([][]int{nil, {1}}, nil)
	if err := p.RunGraph(context.Background(), selfish); err == nil {
		t.Error("self-dependency graph was accepted")
	}
}

func TestRunGraphAfterClose(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	p.Close()
	if err := p.RunGraph(context.Background(), newTestGraph(chain(2), nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestNestedForkJoin pins the fork-join contract: a task may submit a
// child graph to its own pool and block on it without deadlocking,
// even on a 1-worker pool (the calling worker executes the child's
// tasks itself).
func TestNestedForkJoin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(Config{Workers: workers})
		var nestedRan atomic.Int32
		outer := newTestGraph(make([][]int, 3), nil)
		outer.run = func(ctx context.Context, task, worker int) error {
			inner := newTestGraph(chain(4), nil)
			inner.run = func(context.Context, int, int) error {
				nestedRan.Add(1)
				return nil
			}
			return p.RunGraph(ctx, inner)
		}
		if err := p.RunGraph(context.Background(), outer); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		p.Close()
		if got := nestedRan.Load(); got != 12 {
			t.Errorf("workers=%d: %d nested tasks ran, want 12", workers, got)
		}
	}
}

// TestDeterminismAcrossWorkersAndSeeds is the scheduler-level half of
// the schedule-invariance wall: the observable result of a run — here
// the multiset of executed tasks and each task's claim count — is
// identical for every worker count and steal seed. (Byte-identity of
// real outputs is pinned end to end in harness and service tests.)
func TestDeterminismAcrossWorkersAndSeeds(t *testing.T) {
	deps := [][]int{nil, nil, {0}, {1}, {2, 3}, nil, {5}, {4, 6}}
	costs := []uint64{5, 1, 9, 2, 4, 30, 1, 2}
	for _, workers := range []int{1, 2, 8} {
		for _, seed := range []uint64{1, 7, 0xDEAD} {
			p := NewPool(Config{Workers: workers, Seed: seed})
			g := newTestGraph(deps, costs)
			if err := p.RunGraph(context.Background(), g); err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			p.Close()
			if len(g.order) != len(deps) {
				t.Fatalf("workers=%d seed=%d: %d tasks ran, want %d", workers, seed, len(g.order), len(deps))
			}
			for i, c := range g.claims {
				if c != 1 {
					t.Errorf("workers=%d seed=%d: task %d claimed %d times", workers, seed, i, c)
				}
			}
		}
	}
}

// TestSRPTPrefersLighterRun pins the policy that kills the tail: with
// a heavy graph in flight on a 1-worker pool, a newly submitted light
// graph's tasks run before the heavy graph's queued remainder.
func TestSRPTPrefersLighterRun(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()

	heavyGate := make(chan struct{})
	lightDone := make(chan struct{})
	submitted := make(chan struct{})
	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	heavy := newTestGraph(chain(4), []uint64{1000, 1000, 1000, 1000})
	heavy.run = func(ctx context.Context, task, _ int) error {
		record(fmt.Sprintf("heavy%d", task))
		if task == 0 {
			// Park inside the first heavy task until the light graph is
			// registered — when the worker resumes it must pick the light
			// run's tasks ahead of the heavy chain's remainder.
			close(submitted)
			<-heavyGate
		}
		return nil
	}
	light := newTestGraph(chain(2), []uint64{1, 1})
	light.run = func(context.Context, int, int) error {
		record("light")
		return nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		errs <- p.RunGraph(context.Background(), heavy)
	}()
	go func() {
		defer wg.Done()
		<-submitted
		go func() {
			// Unblock the heavy task once the light graph is registered.
			<-lightStarted(p)
			close(heavyGate)
		}()
		errs <- p.RunGraph(context.Background(), light)
		close(lightDone)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// heavy0 runs first (it was alone); then both light tasks must
	// precede heavy1..heavy3.
	pos := map[string]int{}
	for i, s := range order {
		if _, ok := pos[s]; !ok {
			pos[s] = i
		}
	}
	if !(pos["light"] < pos["heavy1"]) {
		t.Errorf("light tasks did not preempt the heavy chain: order %v", order)
	}
}

// lightStarted returns a channel closed once the pool sees 2 active
// runs (the heavy run plus the light one).
func lightStarted(p *Pool) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		for {
			if p.Stats().Active >= 2 {
				close(ch)
				return
			}
			runtime.Gosched()
		}
	}()
	return ch
}

// TestNewestReadyRunsFirst pins the claim rule: a worker takes the
// newest ready task of its run. On a 1-worker pool, task 0 readies its
// children 1, 2 and 3 in that order and task 3 then readies task 4, so
// 4 runs ahead of the older 2 and 1.
func TestNewestReadyRunsFirst(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	g := newTestGraph([][]int{nil, {0}, {0}, {0}, {3}}, nil)
	if err := p.RunGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 4, 2, 1}; !slices.Equal(g.order, want) {
		t.Errorf("order %v, want %v", g.order, want)
	}
}

// TestStatsAccounting checks the counters on a binary tree of 64
// tasks: each task is readied by the worker that ran its parent (the
// root by worker 0), so Pops must count exactly the tasks that ran on
// their parent's worker.
func TestStatsAccounting(t *testing.T) {
	p := NewPool(Config{Workers: 4, Seed: 3})
	const n = 64
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		deps[i] = []int{(i - 1) / 2}
	}
	ranOn := make([]int, n)
	g := newTestGraph(deps, nil)
	g.run = func(_ context.Context, task, worker int) error {
		ranOn[task] = worker
		runtime.Gosched() // let other workers claim
		return nil
	}
	if err := p.RunGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	p.Close()
	var pops uint64
	if ranOn[0] == 0 {
		pops++
	}
	for i := 1; i < n; i++ {
		if ranOn[i] == ranOn[(i-1)/2] {
			pops++
		}
	}
	if st.Tasks != n {
		t.Errorf("Tasks = %d, want %d", st.Tasks, n)
	}
	if st.Graphs != 1 {
		t.Errorf("Graphs = %d, want 1", st.Graphs)
	}
	if st.Pops != pops {
		t.Errorf("Pops = %d, want %d tasks run by the worker that readied them", st.Pops, pops)
	}
	if st.Pops+st.Steals != st.Tasks {
		t.Errorf("Pops(%d)+Steals(%d) != Tasks(%d)", st.Pops, st.Steals, st.Tasks)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("drained pool reports Active=%d Queued=%d", st.Active, st.Queued)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
}

func TestObserverSeesEveryTask(t *testing.T) {
	var mu sync.Mutex
	var events []TaskEvent
	p := NewPool(Config{Workers: 2, Observer: func(ev TaskEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	g := newTestGraph(chain(6), []uint64{1, 2, 3, 4, 5, 6})
	if err := p.RunGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	p.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 6 {
		t.Fatalf("observer saw %d events, want 6", len(events))
	}
	seen := map[string]uint64{}
	for _, ev := range events {
		seen[ev.Label] = ev.Cost
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Errorf("event worker %d out of range", ev.Worker)
		}
	}
	if seen["t3"] != 4 {
		t.Errorf("t3 cost = %d, want 4", seen["t3"])
	}
}

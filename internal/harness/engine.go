// The experiment engine: every experiment declares its measurement grid
// as a slice of Cells plus a deterministic assembly function; the engine
// submits the cells as a task graph to a shard pool
// (internal/sched), memoizes every cell process-wide (fig4–fig7 and the
// RD/preset sweeps share their SVT-AV1 stat cells instead of
// recomputing them), and gathers results by cell index so rendered
// tables are byte-identical for any worker count, steal seed, or
// interleaving. Counted cells additionally shard below the cell: their
// encode task graphs run on the same pool (see steal.go), so a heavy
// cell no longer pins a worker while cheap cells queue.
package harness

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/telemetry"
)

// Cell-acquisition latency (hit: map lookup; miss: the full
// measurement), in host microseconds — volatile by nature, lives in
// engine.go because this file is the sanctioned wall-clock layer.
var obsCellLookup = obs.NewVolatileHistogram("harness.cellcache.lookup_us", telemetry.LookupBucketsUS)

// engineInflight tracks cells currently executing process-wide — the
// worker-occupancy gauge the daemon's telemetry sampler reads.
var engineInflight atomic.Int64

// EngineInflight reports how many cell evaluations are in flight right
// now, across every engine entry point in the process.
func EngineInflight() int64 { return engineInflight.Load() }

// Plan is an experiment lowered to the engine's form: the cell grid to
// measure and a pure assembly function that turns the measured results
// (indexed exactly like Cells) into rendered tables. Assemble must not
// mutate the results, which are shared across experiments.
type Plan struct {
	Cells    []Cell
	Assemble func(s Scale, res []CellResult) ([]*Table, error)
}

// Options configures an engine run.
type Options struct {
	// Workers bounds concurrent cell evaluations (<=0 means 1).
	Workers int
	// Experiments selects a subset by ID (nil/empty = all registered).
	Experiments []string
	// Obs, when non-nil, receives one deterministic trace lane per
	// experiment (spans assembled in cell-index order after each
	// experiment completes) plus engine counters. nil disables
	// observation at zero cost.
	Obs *obs.Session
}

// ExperimentReport is the per-experiment slice of a Report.
type ExperimentReport struct {
	ID        string
	Title     string
	Tables    []*Table
	Wall      time.Duration
	Cells     int // grid size
	CacheHits int // cells satisfied by the memo cache
}

// Report is the outcome of RunAll: tables in registry order plus
// wall-clock and cache-hit accounting.
type Report struct {
	Results []ExperimentReport
	Wall    time.Duration
	Workers int
}

// Tables flattens the report in experiment order.
func (r *Report) Tables() []*Table {
	var out []*Table
	for _, er := range r.Results {
		out = append(out, er.Tables...)
	}
	return out
}

// RunAll executes the selected experiments at the given scale.
// Experiments run in registry order; each experiment's cell grid fans
// out across at most opts.Workers goroutines. The first cell error
// cancels the run and is returned wrapped with its experiment ID.
// Cancelling ctx stops new cells from starting.
//
//lint:ignore detflow engine progress/timing layer: Report.Wall and per-experiment Wall are wall-clock reporting for the operator, never table cells
func RunAll(ctx context.Context, s Scale, opts Options) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	var exps []Experiment
	if len(opts.Experiments) == 0 {
		exps = List()
	} else {
		for _, id := range opts.Experiments {
			e, err := Lookup(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
	}
	rep := &Report{Workers: workers}
	start := time.Now()
	for _, e := range exps {
		t0 := time.Now()
		tables, cells, hits, err := runExperiment(ctx, e, s, workers, opts.Obs)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", e.ID, err)
		}
		rep.Results = append(rep.Results, ExperimentReport{
			ID: e.ID, Title: e.Title, Tables: tables,
			Wall: time.Since(t0), Cells: cells, CacheHits: hits,
		})
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// runExperiment plans and executes one experiment.
func runExperiment(ctx context.Context, e Experiment, s Scale, workers int, sess *obs.Session) ([]*Table, int, int, error) {
	if e.Plan == nil {
		return nil, 0, 0, fmt.Errorf("harness: experiment %s has no plan", e.ID)
	}
	p, err := e.Plan(s)
	if err != nil {
		return nil, 0, 0, err
	}
	res, hits, err := runCells(ctx, p.Cells, workers)
	if err != nil {
		return nil, len(p.Cells), hits, err
	}
	obsExperiments.Add(1)
	obsCells.Add(uint64(len(p.Cells)))
	// Observation happens after the parallel section, on a fresh lane,
	// walking cells in index order: the trace cannot see scheduling.
	observeExperiment(sess.Lane(e.ID), e, p.Cells, res)
	observeStageHistograms(res)
	tables, err := p.Assemble(s, res)
	return tables, len(p.Cells), hits, err
}

// runCells evaluates a cell grid on the shard pool.
// Results land at their cell's index regardless of completion order,
// which is what makes assembly deterministic. When the context already
// carries a pool (a daemon's process-wide scheduler, a test's seeded
// one), cells and their shards run on it and workers is ignored;
// otherwise a pool of the requested width is created for the run.
// Returns the cache-hit count and the first error, which cancels the
// run; runCells returns only after every started cell has settled, so
// no shard of an abandoned run can touch the results afterwards.
func runCells(ctx context.Context, cells []Cell, workers int) ([]CellResult, int, error) {
	res := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return res, 0, ctx.Err()
	}
	pool := sched.PoolFrom(ctx)
	if pool == nil {
		pool = sched.NewPool(sched.Config{Workers: workers})
		defer pool.Close()
		ctx = sched.WithPool(ctx, pool)
	}
	var hits atomic.Int64
	g := &cellGraph{cells: cells, res: res, hits: &hits}
	if err := pool.RunGraph(ctx, g); err != nil {
		return nil, int(hits.Load()), err
	}
	return res, int(hits.Load()), nil
}

// cellGraph presents a cell grid as a dependence-free task graph:
// costs come from the static admission cost table, so the pool's
// shortest-remaining-first policy starts cheap cells ahead of heavy
// ones even before any of them shard.
type cellGraph struct {
	cells []Cell
	res   []CellResult
	hits  *atomic.Int64
}

func (g *cellGraph) NumTasks() int      { return len(g.cells) }
func (g *cellGraph) Deps(int) []int     { return nil }
func (g *cellGraph) Cost(i int) uint64  { return cellCost(g.cells[i]) }
func (g *cellGraph) Label(i int) string { return g.cells[i].String() }

func (g *cellGraph) Run(ctx context.Context, i, _ int) error {
	r, hit, err := RunCell(ctx, g.cells[i])
	if err != nil {
		return fmt.Errorf("cell %s: %w", g.cells[i], err)
	}
	if hit {
		g.hits.Add(1)
	}
	g.res[i] = r
	return nil
}

// Run executes the experiment single-threaded at the given scale — the
// pre-engine entry point, kept for tests, benchmarks and examples. Cell
// results still flow through the process-wide memo cache.
func (e Experiment) Run(s Scale) ([]*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tables, _, _, err := runExperiment(context.Background(), e, s, 1, nil)
	return tables, err
}

// RunCell computes one cell through the process-wide memo cache — the
// service-facing entry point for single-measurement jobs. The second
// return reports a cache hit (including joining an in-flight identical
// computation). Cancelling ctx aborts the measurement at the next task
// boundary; aborted computations are never cached.
//
//lint:ignore detflow engine progress/timing layer: lookup latency feeds a volatile histogram, never a table cell
func RunCell(ctx context.Context, c Cell) (CellResult, bool, error) {
	obsOccupancyPeak.Max(uint64(engineInflight.Add(1)))
	defer engineInflight.Add(-1)
	t0 := time.Now()
	r, hit, err := getCell(ctx, c)
	obsCellLookup.Observe(uint64(time.Since(t0).Microseconds()))
	return r, hit, err
}

// RunExperiment executes one registered experiment by ID and returns
// its report — the service-facing entry point for experiment jobs. It
// shares the memo cache with every other caller in the process, so a
// daemon serving repeat traffic recomputes nothing.
//
//lint:ignore detflow engine progress/timing layer: ExperimentReport.Wall is operator reporting, never a table cell (same contract as RunAll)
func RunExperiment(ctx context.Context, id string, s Scale, workers int, sess *obs.Session) (*ExperimentReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tables, cells, hits, err := runExperiment(ctx, e, s, workers, sess)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return &ExperimentReport{
		ID: e.ID, Title: e.Title, Tables: tables,
		Wall: time.Since(t0), Cells: cells, CacheHits: hits,
	}, nil
}

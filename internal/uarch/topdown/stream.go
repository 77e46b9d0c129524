package topdown

import (
	"context"
	"fmt"
	"sync"

	"vcprof/internal/obs"
)

// Streaming top-down: both producers (the pipeline replay model and
// the perf-counter façade) can flush cumulative slot-attribution
// snapshots mid-run into Accumulators carried on the context, so the
// serving layer reports retiring/bad-spec/frontend/backend while a
// fig5/fig16-class job is still executing.
//
// The stream carries cumulative snapshots, never deltas: per-category
// deltas between two flushes can go negative (retiring can outpace the
// provisional clamp within a window), whereas each cumulative snapshot
// is internally consistent, so any observed instant sums to 1.

// Slots is an absolute level-1 slot attribution. Retiring + BadSpec +
// Frontend + Backend ≤ Total; Level1 treats any shortfall as backend.
type Slots struct {
	Total    uint64 `json:"total"`
	Retiring uint64 `json:"retiring"`
	BadSpec  uint64 `json:"bad_spec"`
	Frontend uint64 `json:"frontend"`
	Backend  uint64 `json:"backend"`
}

func (s Slots) add(o Slots) Slots {
	s.Total += o.Total
	s.Retiring += o.Retiring
	s.BadSpec += o.BadSpec
	s.Frontend += o.Frontend
	s.Backend += o.Backend
	return s
}

// Level1 converts absolute slots into a level-1 breakdown summing to
// exactly 1: categories are clamped into the remaining budget in the
// canonical order retiring → bad-spec → frontend, and backend is the
// remainder.
func (s Slots) Level1() (Breakdown, error) {
	if s.Total == 0 {
		return Breakdown{}, fmt.Errorf("topdown: zero total slots")
	}
	ret := min(s.Retiring, s.Total)
	bad := min(s.BadSpec, s.Total-ret)
	fe := min(s.Frontend, s.Total-ret-bad)
	be := s.Total - ret - bad - fe
	b := Breakdown{
		Retiring: float64(ret) / float64(s.Total),
		BadSpec:  float64(bad) / float64(s.Total),
		Frontend: float64(fe) / float64(s.Total),
		Backend:  float64(be) / float64(s.Total),
	}
	b.FrontendLatency = b.Frontend
	b.CoreBound = b.Backend
	return b, b.Validate()
}

// Accumulator aggregates slot attribution from any number of
// producers: committed totals of finished runs plus the latest
// cumulative snapshot of each in-flight run. The serving layer keeps
// one per job and one process-wide aggregate.
type Accumulator struct {
	mu      sync.Mutex
	done    Slots
	live    map[*Producer]Slots
	flushes uint64
	commits uint64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{live: make(map[*Producer]Slots)}
}

// Snapshot is a point-in-time view of an accumulator.
type Snapshot struct {
	Slots
	Producers int    // in-flight producers contributing live snapshots
	Flushes   uint64 // mid-run flushes observed so far
	Commits   uint64 // finished runs folded into the totals
}

// Snapshot sums committed totals with every live producer snapshot.
func (a *Accumulator) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{Slots: a.done, Flushes: a.flushes, Commits: a.commits}
	for _, lv := range a.live {
		s.Slots = s.Slots.add(lv)
		s.Producers++
	}
	return s
}

func (a *Accumulator) observe(p *Producer, s Slots) {
	a.mu.Lock()
	a.live[p] = s
	a.flushes++
	a.mu.Unlock()
}

func (a *Accumulator) commit(p *Producer, s Slots) {
	a.mu.Lock()
	delete(a.live, p)
	a.done = a.done.add(s)
	a.commits++
	a.mu.Unlock()
}

func (a *Accumulator) abort(p *Producer) {
	a.mu.Lock()
	delete(a.live, p)
	a.mu.Unlock()
}

// Producer is one run's handle onto every accumulator the context
// carries. A nil Producer (no accumulators attached) is the disabled
// stream: every method is a no-op, so simulator hot loops need no
// enable checks beyond one nil test.
type Producer struct {
	accs []*Accumulator
}

type ctxKey struct{}

// WithAccumulator attaches an accumulator to the context. Multiple
// attachments fan out: one producer feeds the per-job accumulator and
// the server-wide aggregate from the same flush.
func WithAccumulator(ctx context.Context, a *Accumulator) context.Context {
	if a == nil {
		return ctx
	}
	prev, _ := ctx.Value(ctxKey{}).([]*Accumulator)
	accs := make([]*Accumulator, len(prev), len(prev)+1)
	copy(accs, prev)
	accs = append(accs, a)
	return context.WithValue(ctx, ctxKey{}, accs)
}

// StartProducer registers a new run against the context's
// accumulators. Returns nil — the disabled producer — when the
// context carries none, so callers can skip flush bookkeeping
// entirely on untelemetered runs.
func StartProducer(ctx context.Context) *Producer {
	accs, _ := ctx.Value(ctxKey{}).([]*Accumulator)
	if len(accs) == 0 {
		return nil
	}
	return &Producer{accs: accs}
}

var (
	obsFlushes = obs.NewVolatileCounter("uarch.topdown.flushes")
	obsCommits = obs.NewVolatileCounter("uarch.topdown.commits")
)

// Observe replaces this run's in-flight cumulative snapshot in every
// attached accumulator.
func (p *Producer) Observe(s Slots) {
	if p == nil {
		return
	}
	for _, a := range p.accs {
		a.observe(p, s)
	}
	obsFlushes.Add(1)
}

// Commit folds the run's final slots into every accumulator and
// retires the in-flight snapshot.
func (p *Producer) Commit(s Slots) {
	if p == nil {
		return
	}
	for _, a := range p.accs {
		a.commit(p, s)
	}
	obsCommits.Add(1)
}

// Abort drops the in-flight snapshot without committing (failed or
// cancelled runs), so accumulators never carry stale live entries.
func (p *Producer) Abort() {
	if p == nil {
		return
	}
	for _, a := range p.accs {
		a.abort(p)
	}
}

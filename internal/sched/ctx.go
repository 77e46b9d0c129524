package sched

import "context"

// Context plumbing. Two things travel on the context:
//
//   - the pool itself (WithPool / PoolFrom), so layers that cannot
//     import each other — the engine, the cell memo, the service's
//     job runner — agree on one scheduler per request; and
//   - the identity of the pool worker running the current task, set by
//     the pool around every Run call, which is how a nested RunGraph
//     recognizes fork-join nesting and keeps its worker executing
//     instead of blocking a pool slot.

type poolKey struct{}

type workerKey struct{}

type workerRef struct {
	p *Pool
	w int
}

// WithPool attaches a pool to ctx; work started under the returned
// context (cells, encodes) schedules its shards on it.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom returns the pool governing ctx: the innermost pool a task
// is running on, or one attached with WithPool, or nil.
func PoolFrom(ctx context.Context) *Pool {
	if ref, ok := ctx.Value(workerKey{}).(workerRef); ok {
		return ref.p
	}
	if p, ok := ctx.Value(poolKey{}).(*Pool); ok {
		return p
	}
	return nil
}

// withWorker marks ctx as running on pool p's worker w.
func withWorker(ctx context.Context, p *Pool, w int) context.Context {
	return context.WithValue(ctx, workerKey{}, workerRef{p: p, w: w})
}

// workerFrom reports whether ctx is executing on one of p's workers.
func workerFrom(ctx context.Context, p *Pool) (int, bool) {
	ref, ok := ctx.Value(workerKey{}).(workerRef)
	if !ok || ref.p != p {
		return 0, false
	}
	return ref.w, true
}

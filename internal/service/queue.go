package service

import (
	"container/heap"
	"errors"
	"sync"
)

// Queue admission errors.
var (
	// ErrSaturated is returned when the queue is at capacity; the HTTP
	// layer maps it to 429 + Retry-After.
	ErrSaturated = errors.New("service: queue saturated")
	// ErrClosed is returned once the queue stops accepting work; the
	// HTTP layer maps it to 503 during drain.
	ErrClosed = errors.New("service: queue closed")
)

// jobHeap orders queued jobs by (priority, static cost estimate,
// arrival sequence): the shortest expected job is served first inside
// each priority class. A job's cost is fixed at admission, so its
// queue rank never changes while it waits and pop order is a pure
// function of the admitted set. Arrival order breaks all remaining
// ties, so equal work is served in submission order no matter how
// workers race.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority < h[j].spec.Priority
	}
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// queue is the bounded priority job queue. Admission is non-blocking
// (push fails fast with ErrSaturated so the caller can shed load);
// consumption blocks until work arrives or the queue closes and drains.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	h      jobHeap
	seq    uint64
	limit  int
	closed bool
}

func newQueue(limit int) *queue {
	if limit < 1 {
		limit = 1
	}
	q := &queue{limit: limit}
	//lint:ignore lockheld constructor: q is not shared until newQueue returns
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, assigning its cost estimate and arrival
// sequence. It never blocks: a full queue is an admission-control
// decision, not a wait.
func (q *queue) push(j *Job) error {
	j.cost = j.spec.EstimatedCost()
	j.class = classOf(j.cost)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.h) >= q.limit {
		return ErrSaturated
	}
	j.seq = q.seq
	q.seq++
	heap.Push(&q.h, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available and returns it; ok is false once
// the queue is closed AND fully drained, which is the workers' exit
// signal (queued jobs are still completed during a graceful drain).
func (q *queue) pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.h) == 0 {
		return nil, false
	}
	return heap.Pop(&q.h).(*Job), true
}

// depth reports the current number of queued jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// close stops admission and wakes all waiting workers. Already-queued
// jobs remain poppable so a graceful drain can finish them.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

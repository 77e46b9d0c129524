package service

import (
	"sync"
	"time"
)

// Job lifecycle states, as reported by GET /v1/jobs/{id}.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one tracked submission. The spec (and derived key) is
// immutable after construction; seq is written once by the queue under
// its own mutex before any worker can see the job; state and errMsg
// change only under the jobTable's mutex.
type job struct {
	spec JobSpec
	key  string
	seq  uint64 // queue arrival order, assigned by queue.push
	// cost is the static admission cost estimate (spec.EstimatedCost)
	// and class its size bucket for the queue-wait histograms. Both are
	// scheduling hints: they steer pop order and telemetry, and are
	// excluded from the canonical spec, so they never touch the key or
	// the result bytes.
	cost  uint64
	class costClass
	// enqueuedAt stamps admission for the queue-wait histogram —
	// telemetry only, never part of the result document. Written once
	// at construction, before the job is published to the queue.
	enqueuedAt time.Time
	// traceID is the propagated (or key-derived) hop-trace id. Written
	// once at construction; observability only, never in the result.
	traceID string

	state  string
	errMsg string
}

func newJob(spec JobSpec, traceID string) *job {
	cost := spec.EstimatedCost()
	return &job{spec: spec, key: spec.Key(), cost: cost, class: classOf(cost),
		traceID: traceID, state: StateQueued, enqueuedAt: time.Now()}
}

// jobTable is the in-flight job map, keyed by content address. Live
// entries are bounded by Workers + QueueCap (failed ones linger until
// resubmitted), and every request that reaches it has already been
// through the store's one lock, so one mutex guards it.
type jobTable struct {
	mu sync.Mutex
	m  map[string]*job
}

func newJobTable() *jobTable { return &jobTable{m: make(map[string]*job)} }

// getOrAdd returns the tracked job for a key and its current state,
// creating and registering a fresh one when absent. loaded reports
// whether an existing job was joined (the singleflight path: the
// duplicate submission shares the original's computation and result).
func (t *jobTable) getOrAdd(spec JobSpec, key, traceID string) (j *job, state string, loaded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[key]; ok && cur.state != StateFailed {
		return cur, cur.state, true
	}
	// Absent, or present but failed: a failed job is replaced by a
	// fresh attempt (timeouts are the common failure, and a retry may
	// have a longer budget).
	j = newJob(spec, traceID)
	t.m[key] = j
	return j, j.state, false
}

// status reads a tracked job's current state and error consistently.
func (t *jobTable) status(key string) (state, errMsg string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[key]
	if !ok {
		return "", "", false
	}
	return j.state, j.errMsg, true
}

// remove untracks a job (admission failed; it never entered the queue).
func (t *jobTable) remove(key string, j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[key]; ok && cur == j {
		delete(t.m, key)
	}
}

// setState transitions a job; terminal states are final.
func (t *jobTable) setState(j *job, state, errMsg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.state = state
	j.errMsg = errMsg
	// Done jobs are untracked — their results live in the store, which
	// answers all later polls. Failed jobs stay tracked so pollers can
	// read the error; a resubmission replaces them.
	if state == StateDone {
		if cur, ok := t.m[j.key]; ok && cur == j {
			delete(t.m, j.key)
		}
	}
}

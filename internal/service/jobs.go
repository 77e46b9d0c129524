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
// change only under the owning jobShard's mutex. done is closed (under
// the shard lock) exactly when the job reaches a terminal state, so
// synchronous waiters need no polling.
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
	done   chan struct{}
}

func newJob(spec JobSpec, traceID string) *job {
	cost := spec.EstimatedCost()
	return &job{spec: spec, key: spec.Key(), cost: cost, class: classOf(cost),
		traceID: traceID, state: StateQueued, done: make(chan struct{}), enqueuedAt: time.Now()}
}

// jobShards is the stripe count of the in-flight table. Keys are
// uniformly distributed hex SHA-256, so the first byte is an unbiased
// shard selector.
const jobShards = 16

// jobTable is the sharded in-flight job map, keyed by content address.
// Sharding keeps submit/poll traffic from serializing on one lock while
// the worker pool updates states.
type jobTable struct {
	shards [jobShards]jobShard
}

type jobShard struct {
	mu sync.Mutex
	m  map[string]*job
}

func newJobTable() *jobTable {
	t := &jobTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*job)
	}
	return t
}

func (t *jobTable) shard(key string) *jobShard {
	if len(key) == 0 {
		return &t.shards[0]
	}
	// Keys are lowercase hex; the first two nibbles give 0..255.
	v := hexNibble(key[0])
	if len(key) > 1 {
		v = v<<4 | hexNibble(key[1])
	}
	return &t.shards[v%jobShards]
}

func hexNibble(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return 0
}

// getOrAdd returns the tracked job for a key, creating and registering
// a fresh one when absent. loaded reports whether an existing job was
// joined (the singleflight path: the duplicate submission shares the
// original's computation and result).
func (t *jobTable) getOrAdd(spec JobSpec, key, traceID string) (j *job, loaded bool) {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.m[key]; ok && cur.state != StateFailed {
		return cur, true
	}
	// Absent, or present but failed: a failed job is replaced by a
	// fresh attempt (timeouts are the common failure, and a retry may
	// have a longer budget).
	j = newJob(spec, traceID)
	sh.m[key] = j
	return j, false
}

// get looks up a tracked job.
func (t *jobTable) get(key string) (*job, bool) {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.m[key]
	return j, ok
}

// remove untracks a job (admission failed; it never entered the queue).
func (t *jobTable) remove(key string, j *job) {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.m[key]; ok && cur == j {
		delete(sh.m, key)
	}
}

// setState transitions a job. Terminal states close done.
func (t *jobTable) setState(j *job, state, errMsg string) {
	sh := t.shard(j.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.state = state
	j.errMsg = errMsg
	if state == StateDone || state == StateFailed {
		close(j.done)
	}
	// Done jobs are untracked — their results live in the store, which
	// answers all later polls. Failed jobs stay tracked so pollers can
	// read the error; a resubmission replaces them.
	if state == StateDone {
		if cur, ok := sh.m[j.key]; ok && cur == j {
			delete(sh.m, j.key)
		}
	}
}

// snapshot reads a job's current state and error consistently.
func (t *jobTable) snapshot(j *job) (state, errMsg string) {
	sh := t.shard(j.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return j.state, j.errMsg
}

package service

import (
	"context"
	"sync"
	"time"

	"vcprof/internal/memo"
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
// its own mutex before any worker can see the job; state, interest and
// cancel change only under the jobTable's mutex.
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

	state string
	// done is closed exactly once, under the jobTable's mutex, when the
	// job leaves the table (done, failed, or refused by the queue): the
	// one wake-up every waiting GET parks on.
	done chan struct{}
	// interest counts the accepted submits (the original and every
	// singleflight join) that DELETE /v1/jobs/{id} has not given back.
	// At zero nobody is waiting for the job: a queued one is failed at
	// pop instead of run, a running one is aborted through cancel, which
	// is set while it runs. A client that never sends DELETE keeps its
	// count, so nobody else's DELETE can cancel its job.
	interest int
	cancel   context.CancelFunc
}

func newJob(spec JobSpec, traceID string) *job {
	cost := spec.EstimatedCost()
	return &job{spec: spec, key: spec.Key(), cost: cost, class: classOf(cost), traceID: traceID,
		state: StateQueued, enqueuedAt: time.Now(), done: make(chan struct{}), interest: 1}
}

// maxFailedJobs bounds how many failed jobs stay readable: beyond it the
// oldest failure answers 404, like an id the daemon never saw.
const maxFailedJobs = 1024

const errAbandoned = "abandoned: every submitter withdrew before the job started"

// jobTable tracks the jobs that are not in the store: m holds the queued
// and running ones by content address, bounded by Workers + QueueCap;
// failed keeps the error of the most recent failures, insertion-ordered,
// until the same key is resubmitted. Every request that reaches it has
// already been through the store's one lock, so one mutex guards it.
type jobTable struct {
	mu     sync.Mutex
	m      map[string]*job
	failed *memo.LRU[string, string] // key → error
}

func newJobTable() *jobTable {
	return &jobTable{m: make(map[string]*job), failed: memo.NewLRU[string, string](maxFailedJobs, nil)}
}

// getOrAdd returns the tracked job for a key and its current state,
// creating and registering a fresh one when absent. loaded reports
// whether an existing job was joined (the singleflight path: the
// duplicate submission shares the original's computation and result).
// Either way the submission counts one interest on the job.
func (t *jobTable) getOrAdd(spec JobSpec, key, traceID string) (j *job, state string, loaded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A running job already aborted by its last submitter's DELETE is
	// about to fail: a new submission gets a fresh attempt, as it does
	// after any failure, and the old one finishes unrecorded.
	if cur, ok := t.m[key]; ok && !(cur.state == StateRunning && cur.interest == 0) {
		cur.interest++
		return cur, cur.state, true
	}
	// A failed job is replaced by a fresh attempt (timeouts are the
	// common failure, and a retry may have a longer budget).
	t.failed.Remove(key)
	j = newJob(spec, traceID)
	t.m[key] = j
	return j, j.state, false
}

// status reads a tracked job's current state and error consistently.
func (t *jobTable) status(key string) (state, errMsg string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.m[key]; ok {
		return j.state, "", true
	}
	if errMsg, ok := t.failed.Peek(key); ok {
		return StateFailed, errMsg, true
	}
	return "", "", false
}

// doneOf returns the channel closed when key's queued or running job
// turns terminal, nil when there is none to wait for.
func (t *jobTable) doneOf(key string) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.m[key]; ok {
		return j.done
	}
	return nil
}

// start moves a popped job to running under cancel — or, when every
// submitter has withdrawn while it was queued, fails it unrun.
func (t *jobTable) start(j *job, cancel context.CancelFunc) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.interest == 0 {
		t.finishLocked(j, errAbandoned)
		return false
	}
	j.state, j.cancel = StateRunning, cancel
	return true
}

// release gives back one submit's interest in a queued or running job
// (false: there is none under key) and aborts a running job nobody is
// waiting for any more. The count never goes below zero, so a repeated
// DELETE is harmless.
func (t *jobTable) release(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[key]
	if ok && j.interest > 0 {
		if j.interest--; j.interest == 0 && j.cancel != nil {
			j.cancel()
		}
	}
	return ok
}

// finish takes a job out of the table for good. An empty errMsg leaves
// no record: the job is done (its result is in the store, which answers
// all later requests) or the queue refused it. Otherwise it failed, and
// the error stays readable until the key is resubmitted or maxFailedJobs
// newer failures displace it.
func (t *jobTable) finish(j *job, errMsg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finishLocked(j, errMsg)
}

func (t *jobTable) finishLocked(j *job, errMsg string) {
	close(j.done)
	if t.m[j.key] != j {
		return // replaced by a fresh attempt after its submitters withdrew
	}
	delete(t.m, j.key)
	if errMsg != "" {
		t.failed.Put(j.key, errMsg, 1)
	}
}

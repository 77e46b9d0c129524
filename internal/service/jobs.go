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

// Job is one tracked submission: a queued or running job on a daemon, a
// drive on a gate. The spec (and derived key) is immutable after
// construction; seq is written once by the queue under its own mutex
// before any worker can see the job; state, interest and cancel change
// only under its table's mutex.
type Job struct {
	t    *jobTable // the table tracking it; nil for a job no table admitted
	spec JobSpec
	key  string
	seq  uint64 // queue arrival order, assigned by queue.push
	// cost is the static admission cost estimate (spec.EstimatedCost)
	// and class its size bucket for the queue-wait histograms, both set
	// by queue.push: a gate's drives never queue. They are scheduling
	// hints: they steer pop order and telemetry, and are excluded from
	// the canonical spec, so they never touch the key or the result bytes.
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
	// done is closed exactly once, under the table's mutex, when the job
	// leaves the table (done, failed, or refused by its backend): the one
	// wake-up every waiting GET parks on.
	done chan struct{}
	// interest counts the accepted submits (the original and every
	// singleflight join) that DELETE /v1/jobs/{id} has not given back.
	// At zero nobody is waiting for the job: a queued one is failed at
	// start instead of run, a running one is aborted through cancel,
	// which is set while it runs. A client that never sends DELETE keeps
	// its count, so nobody else's DELETE can cancel its job.
	interest int
	cancel   context.CancelFunc
}

// newJob builds a job for a normalized spec whose content address the
// caller has already computed.
func newJob(spec JobSpec, key, traceID string) *Job {
	return &Job{spec: spec, key: key, traceID: traceID,
		state: StateQueued, enqueuedAt: time.Now(), done: make(chan struct{}), interest: 1}
}

// Key is the job's content address, Spec its normalized spec (read
// only) and Trace its hop-trace id.
func (j *Job) Key() string    { return j.key }
func (j *Job) Spec() *JobSpec { return &j.spec }
func (j *Job) Trace() string  { return j.traceID }

// Start moves an admitted job to running under cancel — or, when every
// submitter has withdrawn before it started, fails it unrun and reports
// false.
func (j *Job) Start(cancel context.CancelFunc) bool {
	t := j.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.interest == 0 {
		t.finishLocked(j, errAbandoned)
		return false
	}
	j.state, j.cancel = StateRunning, cancel
	return true
}

// Finish takes a job out of its table for good. An empty errMsg leaves
// no record: the job is done (its bytes are where its backend answers
// later requests from) or it never started. Otherwise it failed, and the
// error stays readable until the key is resubmitted or maxFailedJobs
// newer failures displace it.
func (j *Job) Finish(errMsg string) {
	t := j.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finishLocked(j, errMsg)
}

// maxFailedJobs bounds how many failed jobs stay readable: beyond it the
// oldest failure answers 404, like an id the backend never saw.
const maxFailedJobs = 1024

const errAbandoned = "abandoned: every submitter withdrew before the job started"

// jobTable tracks the jobs whose bytes its backend does not hold yet: m
// holds the queued and running ones by content address, bounded by the
// backend's admission (Workers + QueueCap on a daemon, MaxInflight on a
// gate); failed keeps the error of the most recent failures,
// insertion-ordered, until the same key is resubmitted. One mutex guards
// it.
type jobTable struct {
	mu     sync.Mutex
	m      map[string]*Job
	failed *memo.LRU[string, string] // key → error
}

func newJobTable() *jobTable {
	return &jobTable{m: make(map[string]*Job), failed: memo.NewLRU[string, string](maxFailedJobs, nil)}
}

func (t *jobTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// getOrAdd returns the tracked job for a key and its current state,
// creating and registering a fresh one when absent. loaded reports
// whether an existing job was joined (the singleflight path: the
// duplicate submission shares the original's computation and result).
// Either way the submission counts one interest on the job.
func (t *jobTable) getOrAdd(spec JobSpec, key, traceID string) (j *Job, state string, loaded bool) {
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
	j = newJob(spec, key, traceID)
	j.t = t
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

func (t *jobTable) finishLocked(j *Job, errMsg string) {
	close(j.done)
	if t.m[j.key] != j {
		return // replaced by a fresh attempt after its submitters withdrew
	}
	delete(t.m, j.key)
	if errMsg != "" {
		t.failed.Put(j.key, errMsg, 1)
	}
}

package service

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/sched"
	"vcprof/internal/uarch/topdown"
)

// worker is one pool goroutine: pop, execute, publish, repeat. It exits
// when the queue is closed and drained (graceful shutdown keeps serving
// queued work until then).
func (s *Server) worker(idx int) {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(idx, j)
	}
}

// runJob executes one job under its deadline and publishes the outcome:
// result bytes into the store (then the job is marked done and
// untracked), or the error onto the job record. Telemetry rides
// alongside: queue-wait and latency histograms, the running-jobs
// gauge, streaming top-down accumulators (per-job and aggregate) on
// the context, and — when tracing — a per-job span session adopted
// into the board afterwards. All of it observes; none of it feeds the
// result bytes, which stay identical with telemetry on or off.
func (s *Server) runJob(idx int, j *Job) {
	// A twin submitted, computed and stored while this one waited in
	// the queue satisfies it for free.
	if s.store.Contains(j.key) {
		obsJobsCompleted.Add(1)
		j.Finish("")
		return
	}
	timeout := s.cfg.DefaultTimeout
	if t := time.Duration(j.spec.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	if !j.Start(cancel) {
		obsJobsFailed.Add(1)
		return
	}
	if !j.enqueuedAt.IsZero() {
		wait := uint64(time.Since(j.enqueuedAt).Milliseconds())
		obsQueueWaitMS.Observe(wait)
		obsQueueWaitClassMS[j.class].Observe(wait)
		// Queue wait is scheduler-decided: a volatile placement hop,
		// stamped here (obs never reads the clock itself).
		s.hops.Emit(obs.HopEvent{Trace: j.traceID, Kind: obs.HopQueueWait,
			Dur: wait, StartMS: j.enqueuedAt.UnixMilli()})
	}
	s.tele.running.Add(1)
	defer s.tele.running.Add(-1)
	ctx = obs.WithTraceContext(ctx, obs.TraceContext{Trace: j.traceID})
	ctx = topdown.WithAccumulator(ctx, s.tele.jobAcc(j.key))
	ctx = topdown.WithAccumulator(ctx, s.tele.agg)
	// The job's cells — and, below them, its encode shards — run on the
	// shared shard pool.
	ctx = sched.WithPool(ctx, s.pool)
	var jobSess *obs.Session
	if s.board.enabled() {
		jobSess = obs.NewSession()
	}
	start := time.Now()
	res, err := ExecuteObserved(ctx, &j.spec, jobSess)
	obsJobLatencyMS.Observe(uint64(time.Since(start).Milliseconds()))
	s.board.adopt(jobSess)
	var data []byte
	if err == nil {
		data = res.Encode()
		if perr := s.store.Put(j.key, data); perr != nil {
			err = fmt.Errorf("store: %w", perr)
		}
	}
	if err != nil {
		obsJobsFailed.Add(1)
		s.board.span(idx, obsJobFailedName, j.key, 1)
		s.hops.Emit(obs.HopEvent{Trace: j.traceID, Kind: obs.HopJobFailed,
			Arg: obs.ShortKey(j.key), StartMS: time.Now().UnixMilli()})
		j.Finish(err.Error())
		return
	}
	obsJobsCompleted.Add(1)
	// Ticks advance by payload size — a modeled quantity, never host
	// time, per the obs contract. The exec hop is deterministic on the
	// same grounds: its duration is the result size, identical on every
	// shard (or hedge replay) that computes the job.
	s.board.span(idx, obsJobDoneName, j.key, uint64(len(data)))
	s.hops.Emit(obs.HopEvent{Trace: j.traceID, Kind: obs.HopExec,
		Arg: obs.ShortKey(j.key), Dur: uint64(len(data))})
	j.Finish("")
}

// traceBoard owns the per-worker span lanes. obs Traces are
// single-goroutine by contract; the board serializes the (rare, cheap)
// span appends against /debug/trace exports with one mutex so the
// export can run while traffic flows.
type traceBoard struct {
	sess *obs.Session // nil = tracing disabled

	mu         sync.Mutex
	lanes      []*obs.Trace
	shardLanes []*obs.Trace   // one per shard-pool worker
	adopted    []*obs.Session // completed per-job sessions, bounded ring
}

// maxAdoptedSessions bounds the per-job sessions the profile
// aggregates; beyond it the oldest traced job falls out of the
// profile, keeping daemon memory flat under sustained traffic.
const maxAdoptedSessions = 256

func newTraceBoard(sess *obs.Session, workers int) *traceBoard {
	if sess == nil {
		return &traceBoard{}
	}
	// Lanes are created here, in index order, before any worker runs —
	// lane layout is deterministic even though span contents follow the
	// scheduler.
	lanes := make([]*obs.Trace, workers)
	for i := range lanes {
		lanes[i] = sess.Lane("worker-" + strconv.Itoa(i))
	}
	shardLanes := make([]*obs.Trace, workers)
	for i := range shardLanes {
		shardLanes[i] = sess.Lane("shard-" + strconv.Itoa(i))
	}
	return &traceBoard{sess: sess, lanes: lanes, shardLanes: shardLanes}
}

// Span names for shard-pool lanes in the Chrome trace.
var (
	obsShardRunName   = obs.Name("shard/run")
	obsShardStealName = obs.Name("shard/steal")
)

// shardObserver returns the pool observer feeding per-shard spans onto
// the shard lanes, or nil (no observation overhead) when tracing is
// disabled. Span ticks are the shard's modeled cost — never host time.
func (b *traceBoard) shardObserver() func(sched.TaskEvent) {
	if b.sess == nil {
		return nil
	}
	return func(ev sched.TaskEvent) {
		name := obsShardRunName
		if ev.Stolen {
			name = obsShardStealName
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if ev.Worker < 0 || ev.Worker >= len(b.shardLanes) {
			return
		}
		tr := b.shardLanes[ev.Worker]
		sp := tr.BeginArg(name, ev.Label)
		tr.Advance(1 + ev.Cost)
		sp.End()
	}
}

func (b *traceBoard) enabled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sess != nil
}

// span records one closed span of the given virtual width on a worker's
// lane.
func (b *traceBoard) span(idx int, name obs.NameID, arg string, ticks uint64) {
	if b.sess == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.lanes) {
		return
	}
	tr := b.lanes[idx]
	sp := tr.BeginArg(name, arg)
	tr.Advance(ticks)
	sp.End()
}

// export writes the Chrome trace while holding the board lock, so no
// lane mutates mid-export.
func (b *traceBoard) export(w io.Writer) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return obs.WriteChromeTrace(w, b.sess)
}

// adopt takes ownership of a completed job's span session. Sessions
// are adopted only after the job finishes — a live session must never
// be visible to exports, since Traces are single-goroutine — and from
// then on they are immutable profile inputs.
func (b *traceBoard) adopt(sess *obs.Session) {
	if b.sess == nil || sess == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.adopted = append(b.adopted, sess)
	if len(b.adopted) > maxAdoptedSessions {
		b.adopted = b.adopted[len(b.adopted)-maxAdoptedSessions:]
	}
}

// writeProfile renders the continuous self-profile (flat table, or
// folded stacks with fold) over the worker lanes and every adopted
// job session, under the board lock so no lane mutates mid-read.
func (b *traceBoard) writeProfile(w io.Writer, fold bool, topN int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	sessions := make([]*obs.Session, 0, 1+len(b.adopted))
	sessions = append(sessions, b.sess)
	sessions = append(sessions, b.adopted...)
	if fold {
		return obs.WriteFolded(w, obs.FoldedProfile(sessions...))
	}
	_, err := io.WriteString(w, obs.RenderProfile(obs.ProfileOf(sessions...), topN))
	return err
}

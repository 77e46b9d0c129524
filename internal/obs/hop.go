package obs

import (
	"bufio"
	"context"
	"io"
	"sort"
	"strconv"
	"sync"

	"vcprof/internal/memo"
)

// Distributed hop tracing (DESIGN.md §13). A trace id is derived from
// the job's content address or the session spec key, so every process
// that touches the same work derives the same id with no coordination.
// Each process appends HopEvents to its own HopLog and serves them as a
// slice; a merger (the gate's /v1/cluster/trace/{id}) unions the slices
// into one Chrome trace.
//
// Hops split into two domains, mirroring the counter registry:
//
//   - Deterministic hops (admitted, exec, session-open, gop) describe
//     WHAT was computed. They are content-addressed — (kind, seq, arg,
//     dur) is derived from the job bytes, never from placement — so a
//     hedge, replica or failover replay emits an identical tuple and
//     the merge deduplicates it. The ?volatile=0 merged trace therefore
//     stays byte-identical across topologies, kills and reruns.
//   - Volatile hops (queue-wait, route, hedge-*, failover, replica-push,
//     failover-re-anchor, session-resume, drain-finish, job-failed)
//     describe WHERE and WHEN. They carry the emitting process and a
//     wall-clock stamp (stamped by the caller — this package never
//     reads a clock) and appear only in the full merged view, which is
//     never byte-compared.

// TraceHeader is the HTTP header carrying the trace id between a gate
// and its vcprofd shards.
const TraceHeader = "X-Vcprof-Trace"

// Deterministic hop kinds, in lane (tid) order.
const (
	HopAdmitted    = "admitted"
	HopExec        = "exec"
	HopSessionOpen = "session-open"
	HopGOP         = "gop"
)

// Volatile hop kinds, in lane (tid) order.
const (
	HopQueueWait     = "queue-wait"
	HopRoute         = "route"
	HopHedgeFired    = "hedge-fired"
	HopHedgeWinner   = "hedge-winner"
	HopHedgeLoser    = "hedge-loser-cancelled"
	HopFailover      = "failover"
	HopReplicaPush   = "replica-push"
	HopReAnchor      = "failover-re-anchor"
	HopSessionResume = "session-resume"
	HopDrainFinish   = "drain-finish"
	HopJobFailed     = "job-failed"
)

// hopLanes fixes every kind's lane rank; merged traces assign Chrome
// tids from this table, so lane layout never depends on arrival order.
var hopLanes = map[string]int{
	HopAdmitted:    0,
	HopExec:        1,
	HopSessionOpen: 2,
	HopGOP:         3,

	HopQueueWait:     0,
	HopRoute:         1,
	HopHedgeFired:    2,
	HopHedgeWinner:   3,
	HopHedgeLoser:    4,
	HopFailover:      5,
	HopReplicaPush:   6,
	HopReAnchor:      7,
	HopSessionResume: 8,
	HopDrainFinish:   9,
	HopJobFailed:     10,
}

// HopVolatile reports whether a kind belongs to the volatile domain.
// Unknown kinds are volatile: a newer peer's hop must never leak into a
// byte-pinned merge.
func HopVolatile(kind string) bool {
	switch kind {
	case HopAdmitted, HopExec, HopSessionOpen, HopGOP:
		return false
	}
	return true
}

// HopID is a hop's deterministic identity within its trace: the kind
// plus the per-kind sequence number (GOP index for gop hops, 0 for
// singletons).
func HopID(kind string, seq uint64) string {
	return kind + "#" + strconv.FormatUint(seq, 10)
}

// JobTraceID derives a job's trace id from its content address.
func JobTraceID(key string) string { return "j-" + ShortKey(key) }

// SessionTraceID derives a live session's trace id from its spec key.
func SessionTraceID(key string) string { return "s-" + ShortKey(key) }

func ShortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

// ValidTraceID bounds what a propagation header may carry: 1..64 bytes
// of [a-z0-9._-]. Anything else falls back to the derived id.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// TraceContext is the propagated trace identity, threaded through
// request contexts so queue, scheduler and session code observe the hop
// chain they run under.
type TraceContext struct {
	Trace string
}

type traceCtxKey struct{}

// WithTraceContext attaches tc to ctx.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom recovers the propagated trace context, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// HopEvent is one per-hop lifecycle record. Dur is a modeled quantity
// (result bytes for exec, GOP instructions for gop, milliseconds for
// wall-domain volatile hops); Start is assigned at merge time, never by
// the emitter. StartMS is the emitter's wall stamp on volatile hops
// (zero on deterministic ones).
type HopEvent struct {
	Trace   string `json:"trace"`
	Kind    string `json:"kind"`
	Seq     uint64 `json:"seq,omitempty"`
	Arg     string `json:"arg,omitempty"`
	Dur     uint64 `json:"dur,omitempty"`
	Proc    string `json:"proc,omitempty"`
	Start   uint64 `json:"start,omitempty"`
	StartMS int64  `json:"start_ms,omitempty"`
}

// maxHopsPerTrace bounds one trace's event list; beyond it new events
// are dropped (a trace that large is a bug, not a workload).
const maxHopsPerTrace = 4096

// HopLog is one process's bounded hop store: per-trace event lists with
// FIFO trace eviction (the table is only ever Peeked, so it stays in
// insertion order). A nil *HopLog is the disabled log — Emit and Slice
// are no-ops — matching the package's nil-receiver convention. The
// mutex is a leaf: nothing outside the table is called while it is held.
type HopLog struct {
	proc string

	mu     sync.Mutex
	traces *memo.LRU[string, []HopEvent] // one unit per trace
}

// HopLogTraces is how many traces a daemon's or a gate's hop log keeps,
// oldest evicted first. Hop tracing is always on: hops are cheap
// fixed-size records, two map operations per lifecycle edge, far off the
// encode path.
const HopLogTraces = 512

// NewHopLog builds a log stamping proc onto every event, retaining at
// most maxTraces traces.
func NewHopLog(proc string, maxTraces int) *HopLog {
	return &HopLog{proc: proc, traces: memo.NewLRU[string, []HopEvent](int64(maxTraces), nil)}
}

// Proc names the emitting process.
func (l *HopLog) Proc() string {
	if l == nil {
		return ""
	}
	return l.proc
}

// Emit appends one event. Events with an empty trace or kind are
// dropped rather than polluting the log.
func (l *HopLog) Emit(ev HopEvent) {
	if l == nil || ev.Trace == "" || ev.Kind == "" {
		return
	}
	ev.Proc = l.proc
	ev.Start = 0 // merge-time field; emitters never set it
	l.mu.Lock()
	defer l.mu.Unlock()
	evs, _ := l.traces.Peek(ev.Trace)
	if len(evs) >= maxHopsPerTrace {
		return
	}
	l.traces.Put(ev.Trace, append(evs, ev), 1)
}

// Slice copies one trace's events in emission order (empty when the
// trace is unknown or evicted).
func (l *HopLog) Slice(trace string) []HopEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	evs, _ := l.traces.Peek(trace)
	if len(evs) == 0 {
		return nil
	}
	out := make([]HopEvent, len(evs))
	copy(out, evs)
	return out
}

// MergeHops unions per-process hop slices into one ordered event list.
//
// Deterministic hops deduplicate on (kind, seq, arg, dur) — the
// content-addressed identity — so the same work observed by a shard and
// mirrored by the gate, or re-encoded by a failover replay, collapses
// to one event. They sort by (lane, seq, arg, dur) and each lane gets a
// cumulative virtual-tick clock: hop i starts where hop i-1 ended (plus
// one tick of separation). Process labels are cleared: placement is a
// volatile fact.
//
// Volatile hops (included only with includeVolatile) keep their process
// label, deduplicate exact duplicates only, sort by wall stamp then
// (lane, seq, proc, arg), and map StartMS onto the tick axis relative
// to the earliest volatile stamp.
func MergeHops(slices [][]HopEvent, includeVolatile bool) []HopEvent {
	var det, vol []HopEvent
	seenDet := make(map[HopEvent]bool)
	seenVol := make(map[HopEvent]bool)
	for _, sl := range slices {
		for _, ev := range sl {
			ev.Start = 0
			if HopVolatile(ev.Kind) {
				if !includeVolatile {
					continue
				}
				if key := ev; !seenVol[key] {
					seenVol[key] = true
					vol = append(vol, ev)
				}
				continue
			}
			ev.Proc = ""
			ev.StartMS = 0
			if !seenDet[ev] {
				seenDet[ev] = true
				det = append(det, ev)
			}
		}
	}
	sort.Slice(det, func(i, j int) bool {
		a, b := det[i], det[j]
		if la, lb := hopLanes[a.Kind], hopLanes[b.Kind]; la != lb {
			return la < lb
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Arg != b.Arg {
			return a.Arg < b.Arg
		}
		return a.Dur < b.Dur
	})
	lane := make(map[string]uint64)
	for i := range det {
		det[i].Start = lane[det[i].Kind]
		lane[det[i].Kind] += det[i].Dur + 1
	}
	sort.Slice(vol, func(i, j int) bool {
		a, b := vol[i], vol[j]
		if a.StartMS != b.StartMS {
			return a.StartMS < b.StartMS
		}
		if la, lb := hopLanes[a.Kind], hopLanes[b.Kind]; la != lb {
			return la < lb
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Arg < b.Arg
	})
	if len(vol) > 0 {
		base := vol[0].StartMS
		for i := range vol {
			vol[i].Start = uint64(vol[i].StartMS - base)
		}
	}
	return append(det, vol...)
}

// WriteHopTrace serializes merged hop events as Chrome trace-event
// JSON: pid 1 holds the deterministic lanes, pid 2 the volatile ones,
// tids follow the fixed lane table, and hop names are HopID(kind, seq).
// One event per line, fully ordered input in → byte-identical output
// out, same contract as WriteChromeTrace.
func WriteHopTrace(w io.Writer, events []HopEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(line)
	}
	seenLane := make(map[[2]int]bool)
	var buf []byte
	for _, ev := range events {
		pid, tid := hopLane(ev.Kind)
		if k := [2]int{pid, tid}; !seenLane[k] {
			seenLane[k] = true
			buf = buf[:0]
			buf = append(buf, `{"ph":"M","pid":`...)
			buf = strconv.AppendInt(buf, int64(pid), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(tid), 10)
			buf = append(buf, `,"name":"thread_name","args":{"name":`...)
			buf = appendJSONString(buf, ev.Kind)
			buf = append(buf, `}}`...)
			emit(buf)
		}
		buf = buf[:0]
		buf = append(buf, `{"ph":"X","pid":`...)
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendUint(buf, ev.Start, 10)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendUint(buf, ev.Dur, 10)
		buf = append(buf, `,"name":`...)
		buf = appendJSONString(buf, HopID(ev.Kind, ev.Seq))
		buf = append(buf, `,"args":{"trace":`...)
		buf = appendJSONString(buf, ev.Trace)
		if ev.Arg != "" {
			buf = append(buf, `,"arg":`...)
			buf = appendJSONString(buf, ev.Arg)
		}
		if ev.Proc != "" {
			buf = append(buf, `,"proc":`...)
			buf = appendJSONString(buf, ev.Proc)
		}
		buf = append(buf, `}}`...)
		emit(buf)
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// hopLane maps a kind onto its (pid, tid): deterministic lanes under
// pid 1, volatile under pid 2, unknown volatile kinds on a shared
// overflow lane.
func hopLane(kind string) (pid, tid int) {
	if !HopVolatile(kind) {
		return 1, hopLanes[kind] + 1
	}
	if r, ok := hopLanes[kind]; ok {
		return 2, r + 1
	}
	return 2, len(hopLanes) + 1
}

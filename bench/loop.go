package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one completed (or failed) operation of a workload.
type op struct {
	latency time.Duration
	digest  [32]byte
	// insts is the simulated work behind the result: instructions the
	// encode retired, or µops the pipeline replayed.
	insts uint64
	// aux ops count toward throughput and the resource metrics but not
	// the latency percentiles (gate_mix's resubmissions).
	aux bool
	err error
}

// client is one closed-loop client goroutine: its own connection pool,
// its own span lane, its own host-speed reference.
type client struct {
	id   int
	http *http.Client
	tr   *tracer
	ref  *hostRef
}

func (c *client) begin(name string, op, parent int) int { return c.tr.begin(c.id, name, op, parent) }
func (c *client) end(h int)                             { c.tr.end(c.id, h) }

// workload is one seeded closed-loop op source. A run executes whole
// passes. Every pass of a workload has the same composition (the grid
// is dealt evenly across a cycle of passes, see deal), reordered and
// prioritised by the seed, so what is measured never depends on timing
// and any two passes are comparable.
type workload interface {
	name() string
	// passSeconds is what one pass costs on the 2-core reference box;
	// it converts -seconds into a pass count.
	passSeconds() float64
	// setup builds everything the timed loop must not pay for (clips,
	// servers, primed stores); its duration is setup_s. teardown
	// releases it and must be safe after a failed setup.
	setup(ctx context.Context) error
	teardown()
	// warmup runs one op outside the measured set.
	warmup(ctx context.Context) error
	// plan fixes the op lists of passes [0, n) and returns the unit
	// count of each. It runs first, so setup can build what the plan
	// needs (live sessions).
	plan(n int) []int
	// enterPass runs once, before any unit of the pass starts.
	enterPass(pass int)
	// run executes one unit (one op, or one live session's GOPs).
	run(ctx context.Context, c *client, pass, unit int) []op
	// verify runs the untimed output checks that need the environment
	// still up (served bytes against direct execution).
	verify(ctx context.Context) error
	// layers reports the per-layer metrics this workload owns, read
	// from its own traced loop.
	layers(res *loopResult, out map[string]float64)
}

// passStat is what one pass cost. Clients rendezvous between passes,
// so the CPU and allocation deltas belong to this pass's ops alone.
type passStat struct {
	wall       time.Duration
	cpuSeconds float64 // the reference kernel's share taken out
	mallocs    uint64
	allocBytes uint64
	// What the clients spent in the host-speed reference (hostref.go).
	refSeconds float64
	refCalls   int
}

// loopResult is everything one timed loop produced.
type loopResult struct {
	ops    [][][]op // [pass][unit][]op
	passes []passStat
	lanes  [][]span // nil when tracing was off
}

// wall is the time the passes took, rendezvous excluded.
func (r *loopResult) wall() time.Duration {
	var d time.Duration
	for _, p := range r.passes {
		d += p.wall
	}
	return d
}

// hostFactor is how much slower than nominal the host ran the loop: the
// reference kernel's mean time in a pass over refNominalMS, median over
// passes.
func (r *loopResult) hostFactor() float64 {
	var f []float64
	for _, p := range r.passes {
		f = append(f, p.refSeconds*1e3/float64(p.refCalls)/refNominalMS)
	}
	return median(f)
}

func (r *loopResult) each(f func(op)) {
	for _, pass := range r.ops {
		for _, unit := range pass {
			for _, o := range unit {
				f(o)
			}
		}
	}
}

func (r *loopResult) counts() (attempted, failed int) {
	r.each(func(o op) {
		attempted++
		if o.err != nil {
			failed++
		}
	})
	return attempted, failed
}

func (r *loopResult) firstError() error {
	var err error
	r.each(func(o op) {
		if err == nil && o.err != nil {
			err = o.err
		}
	})
	return err
}

// latencies pools the run's completed non-aux op latencies, sorted, in
// milliseconds.
func (r *loopResult) latencies() []float64 {
	var lat []float64
	r.each(func(o op) {
		if o.err == nil && !o.aux {
			lat = append(lat, ms(o.latency))
		}
	})
	sort.Float64s(lat)
	return lat
}

// passDigests folds each completed pass's op digests in (unit, op)
// order, which the plan fixes, so the fold is independent of which
// client ran what when.
func (r *loopResult) passDigests() []string {
	out := make([]string, len(r.ops))
	for p, pass := range r.ops {
		h := sha256.New()
		for u, unit := range pass {
			for i, o := range unit {
				var idx [8]byte
				binary.BigEndian.PutUint32(idx[:4], uint32(u))
				binary.BigEndian.PutUint32(idx[4:], uint32(i))
				h.Write(idx[:])
				h.Write(o.digest[:])
			}
		}
		out[p] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// clientCount is the closed loop's width: C client goroutines and
// connections, matched by C server-side workers in total.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newClients(n int, tr *tracer) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, tr: tr, ref: newHostRef(uint64(i) + 1), http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// passCount converts the requested measuring time into whole passes.
func passCount(w workload, seconds float64) int {
	n := int(math.Round(seconds / w.passSeconds()))
	if n < 1 {
		n = 1
	}
	return n
}

// slowFactor bounds a run on a machine much slower than the reference
// box: once the loop has used this multiple of the requested time it
// stops at the pass boundary instead of finishing the plan.
const slowFactor = 3

// runLoop drives the planned passes through the clients. Within a pass
// the loop is closed: each client takes the pass's next unit when its
// previous one completes. Between passes the clients rendezvous, which
// is what makes a pass a self-contained sample: the run reports the
// median over its passes, so a burst of host noise that lands in one
// pass does not move the result.
func runLoop(ctx context.Context, w workload, clients []*client, units []int, seconds float64) *loopResult {
	res := &loopResult{}
	runtime.GC()
	t0 := time.Now()
	for p, n := range units {
		if p > 0 && time.Since(t0).Seconds() > slowFactor*seconds {
			break
		}
		w.enterPass(p)
		ops := make([][]op, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		start := time.Now()

		var next atomic.Int64
		var wg sync.WaitGroup
		meters := make([]refMeter, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func(c *client, m *refMeter) {
				defer wg.Done()
				for {
					m.catchUp(c.ref, start)
					u := int(next.Add(1)) - 1
					if u >= n {
						return
					}
					ops[u] = w.run(ctx, c, p, u)
				}
			}(c, &meters[i])
		}
		wg.Wait()

		st := passStat{wall: time.Since(start), cpuSeconds: cpuSeconds() - cpu0}
		for _, m := range meters {
			st.refSeconds += m.spent.Seconds()
			st.refCalls += m.calls
		}
		st.cpuSeconds -= st.refSeconds // the kernel never waits, so its wall time is its CPU time
		runtime.ReadMemStats(&m1)
		st.mallocs, st.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		res.ops = append(res.ops, ops)
		res.passes = append(res.passes, st)
	}
	if len(clients) > 0 && clients[0].tr != nil {
		res.lanes = clients[0].tr.lanes
	}
	return res
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// endToEndMetrics derives the gated numbers from one untraced loop.
// Each is computed per pass and reported as the median over passes.
// The tail percentile follows suit when every pass alone supports p95
// (200 samples), and on a workload whose tail is demoted (see
// rowRules), where each pass reports the highest percentile its own
// ops support; otherwise it pools the whole run.
func endToEndMetrics(res *loopResult, clients int, setupS float64, rules rowRules) (map[string]float64, error) {
	var thr, p50, p95, minst, cpu, allocs, allocKB, all []float64
	passTails := true
	for p, pass := range res.ops {
		var lat []float64
		var busy time.Duration
		var insts uint64
		n := 0
		for _, unit := range pass {
			for _, o := range unit {
				if o.err != nil {
					continue
				}
				n++
				busy += o.latency
				insts += o.insts
				if !o.aux {
					lat = append(lat, ms(o.latency))
				}
			}
		}
		if n == 0 || len(lat) == 0 {
			return nil, fmt.Errorf("vcbench: pass %d completed no op", p)
		}
		// Little's law for a closed loop with no think time: C clients
		// each always inside an op complete C/mean-latency ops per
		// second. Unlike ops/wall it does not charge the pass for the
		// client that idles while the other finishes the last op.
		loopS := busy.Seconds() / float64(clients)
		st := res.passes[p]
		thr = append(thr, float64(n)/loopS)
		minst = append(minst, float64(insts)/1e6/loopS)
		sort.Float64s(lat)
		p50 = append(p50, midBand(lat))
		p95 = append(p95, tailOf(lat))
		passTails = passTails && tailRule(len(lat)) >= 0.95
		cpu = append(cpu, st.cpuSeconds/float64(n))
		allocs = append(allocs, float64(st.mallocs)/float64(n))
		allocKB = append(allocKB, float64(st.allocBytes)/1024/float64(n))
		all = append(all, lat...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("vcbench: no op completed")
	}
	sort.Float64s(all)
	tail := tailOf(all)
	if passTails || rules.perPassTail {
		tail = median(p95)
	}
	// Host-time rows are reported at nominal host speed (hostref.go).
	f := res.hostFactor()
	if !rules.rawTail {
		tail /= f
	}
	return map[string]float64{
		"setup_s":          setupS / f,
		"throughput_ops_s": median(thr) * f,
		"latency_p50_ms":   median(p50) / f,
		"latency_p95_ms":   tail,
		"sim_minst_per_s":  median(minst) * f,
		"cpu_s_per_op":     median(cpu) / f,
		"allocs_per_op":    median(allocs),
		"alloc_kb_per_op":  median(allocKB),
		"peak_rss_mb":      peakRSSMB(),
	}, nil
}

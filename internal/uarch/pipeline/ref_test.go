package pipeline

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/cache"
)

// scanPool is the functional-unit pool RunCtx had before it kept the
// free times sorted, moved here verbatim as refRun's own: it books the
// unit a scan finds earliest free.
type scanPool struct {
	free []uint64
}

func newScanPool(k int) *scanPool { return &scanPool{free: make([]uint64, k)} }

// reserve returns the earliest cycle ≥ ready at which a unit is free and
// books it until done.
func (f *scanPool) reserve(ready, busy uint64) (start uint64) {
	best := 0
	for i, fr := range f.free {
		if fr < f.free[best] {
			best = i
		}
	}
	start = ready
	if f.free[best] > start {
		start = f.free[best]
	}
	f.free[best] = start + busy
	return start
}

// counters are the cache levels a replay leaves behind: the front
// end's I-cache and the data hierarchy it ran on.
type counters struct{ L1I, L1D, L2, LLC cache.Stats }

func countersOf(fe *frontEnd, mem *cache.Hierarchy) counters {
	return counters{fe.icache.Stats(), mem.L1.Stats(), mem.L2.Stats(), mem.LLC.Stats()}
}

// runCounted is Run on a front end and data hierarchy the test holds,
// so that their counters can be read after the replay.
func runCounted(s *Sim, win trace.Window) (*Result, counters, error) {
	if win.Len() == 0 {
		res, err := s.Run(win)
		return res, counters{}, err
	}
	fe, err := acquireFront(s.cfg)
	if err != nil {
		return nil, counters{}, err
	}
	defer fe.release(s.cfg)
	mem, err := cache.Acquire(s.cfg)
	if err != nil {
		return nil, counters{}, err
	}
	defer mem.Release()
	res := s.replay(context.Background(), win, fe, mem)
	return res, countersOf(fe, mem), nil
}

// refRun is the replay loop RunCtx had before it batched same-line
// fetches and data accesses, dropped the ring divisions and computed
// its stalls and unit bookings without branches, moved here verbatim
// as the oracle (less the top-down streaming and the obs flush, which
// do not touch the model, and with the L2's latency read from the
// machine where it was the Xeon's 12): every op with a pc asks the
// I-cache, every load and store walks the data hierarchy, every ring
// slot is an index modulo the ring size, every unit is found by a scan.
// It also returns the counters of every cache level.
func refRun(s *Sim, ops []trace.MicroOp) (*Result, counters, error) {
	if len(ops) == 0 {
		return nil, counters{}, fmt.Errorf("pipeline: empty trace")
	}
	fe, err := acquireFront(s.cfg)
	if err != nil {
		return nil, counters{}, err
	}
	defer fe.release(s.cfg)
	mem, err := cache.Acquire(s.cfg)
	if err != nil {
		return nil, counters{}, err
	}
	defer mem.Release()
	cfg := s.cfg
	res := &Result{Ops: uint64(len(ops))}

	alu := newScanPool(cfg.ALUs)
	vec := newScanPool(cfg.VecUnits)
	ldp := newScanPool(cfg.LoadPorts)
	stp := newScanPool(cfg.StorePorts)
	brp := newScanPool(cfg.BranchUnits)

	// Ring buffers of retirement/completion cycles for structural limits.
	retireRing := make([]uint64, cfg.ROBSize)
	loadRing := make([]uint64, cfg.LQSize)
	storeRing := make([]uint64, cfg.SQSize)
	var nLoads, nStores int

	var (
		fetchAvail    uint64 // earliest fetch cycle for the next op
		fetchInGroup  int
		lastRetire    uint64
		retireInCycle int
		lastLoadDone  uint64
		lastVecDone   uint64
		lastALUDone   uint64
		frontendStall uint64 // cycles fetch was forced idle (taken-branch bubbles, icache)
	)

	for i, op := range ops {
		// --- Fetch: width per cycle; icache miss and redirect bubbles.
		// Fetch cannot run more than a ROB's worth of ops ahead of
		// retirement: op i stalls in fetch until op i−ROBSize retires.
		if fetchInGroup >= cfg.Width {
			fetchAvail++
			fetchInGroup = 0
		}
		if i >= cfg.ROBSize {
			if robHead := retireRing[i%cfg.ROBSize]; robHead+1 > fetchAvail {
				res.StallROB += robHead + 1 - fetchAvail
				fetchAvail = robHead + 1
				fetchInGroup = 0
			}
		}
		fetch := fetchAvail
		if op.PC != 0 {
			if hit, _ := fe.icache.Access(uint64(op.PC), false); !hit {
				// Instruction fetch miss: frontend bubble (L2 hit latency —
				// the synthetic code footprint fits L2 easily).
				fetch += uint64(cfg.L2.LatencyCyc)
				frontendStall += uint64(cfg.L2.LatencyCyc)
				fetchAvail = fetch
				fetchInGroup = 0
			}
		}
		fetchInGroup++

		// --- Dispatch after the frontend pipeline.
		dispatch := fetch + uint64(cfg.FrontendDepth)

		// --- Ready: dependence on recent producers, class-based.
		// Dependences: real code has instruction-level parallelism, so
		// only a fraction of ops extend a producer chain; the modulo
		// pattern models unrolled kernels with several live chains.
		var ready uint64 = dispatch
		switch op.Class {
		case trace.OpAVX, trace.OpSSE:
			if i%2 == 0 {
				ready = max(ready, lastLoadDone) // consume a loaded operand
			}
			if i%4 == 1 {
				ready = max(ready, lastVecDone) // accumulation chain
			}
		case trace.OpOther:
			if i%3 == 0 {
				ready = max(ready, lastALUDone)
			}
			if i%8 == 2 {
				ready = max(ready, lastLoadDone)
			}
		case trace.OpBranch:
			// Compare feeding the branch: flags come from recent ALU work,
			// or from a load for data-dependent decisions.
			if i%2 == 0 {
				ready = max(ready, lastALUDone)
			} else {
				ready = max(ready, lastLoadDone)
			}
		case trace.OpStore:
			ready = max(ready, max(lastVecDone, lastALUDone))
		case trace.OpLoad:
			if i%4 == 0 {
				ready = max(ready, lastALUDone) // address generation
			}
		}
		if ready > dispatch {
			res.StallRS += ready - dispatch
		}

		// --- Issue on a functional unit; execute.
		var done uint64
		switch op.Class {
		case trace.OpLoad:
			if nLoads >= cfg.LQSize {
				if lqHead := loadRing[nLoads%cfg.LQSize]; lqHead > ready {
					res.StallLQ += lqHead - ready
					ready = lqHead
				}
			}
			start := ldp.reserve(ready, 1)
			res.StallFU += start - ready
			lat := mem.SpanAccess(op.Addr, int(op.Size), false)
			done = start + uint64(lat)
			loadRing[nLoads%cfg.LQSize] = done
			nLoads++
			lastLoadDone = done
		case trace.OpStore:
			if nStores >= cfg.SQSize {
				if sqHead := storeRing[nStores%cfg.SQSize]; sqHead > ready {
					res.StallSQ += sqHead - ready
					ready = sqHead
				}
			}
			start := stp.reserve(ready, 1)
			res.StallFU += start - ready
			mem.SpanAccess(op.Addr, int(op.Size), true) // fills line; store buffer hides latency
			done = start + 1
			storeRing[nStores%cfg.SQSize] = done
			nStores++
		case trace.OpAVX, trace.OpSSE:
			start := vec.reserve(ready, 1)
			res.StallFU += start - ready
			done = start + 3
			lastVecDone = done
		case trace.OpBranch:
			start := brp.reserve(ready, 1)
			res.StallFU += start - ready
			done = start + 1
			res.Branches++
			if fe.pred.Step(uint64(op.PC), op.Taken) != op.Taken {
				res.Mispredicts++
				// Redirect: fetch restarts after the branch resolves plus
				// the flush/refill penalty. The wasted slots are the
				// penalty window (wrong-path work plus refill bubbles).
				redirect := done + uint64(cfg.MispredictPenalty)
				if redirect > fetchAvail {
					fetchAvail = redirect
					fetchInGroup = 0
				}
				res.BadSpecSlots += uint64(cfg.MispredictPenalty) * uint64(cfg.Width)
			} else if op.Taken {
				// Taken branches end the fetch group: a one-cycle bubble,
				// plus a redirect bubble when the target misses in the BTB.
				bubble := uint64(1)
				if _, hit := fe.btb.Lookup(uint64(op.PC)); !hit {
					bubble += 2
				}
				fe.btb.Update(uint64(op.PC), uint64(op.PC)+16)
				fetchAvail += bubble
				fetchInGroup = 0
				frontendStall += bubble
			}
		default: // OpOther
			start := alu.reserve(ready, 1)
			res.StallFU += start - ready
			done = start + 1
			lastALUDone = done
		}

		// --- Retire in order, width per cycle.
		retire := max(done, lastRetire)
		if retire == lastRetire {
			if retireInCycle >= cfg.Width {
				retire++
				retireInCycle = 0
			}
		} else {
			retireInCycle = 0
		}
		retireInCycle++
		lastRetire = retire
		retireRing[i%cfg.ROBSize] = retire
	}

	res.Cycles = lastRetire + 1
	res.Retired = res.Ops
	res.IPC = float64(res.Ops) / float64(res.Cycles)
	res.BranchMPKI = float64(res.Mispredicts) / (float64(res.Ops) / 1000)
	res.L1DMPKI, res.L2MPKI, res.LLCMPKI = mem.MPKI(res.Ops)

	res.TotalSlots = res.Cycles * uint64(cfg.Width)
	res.RetiringSlots = res.Ops
	if res.BadSpecSlots > res.TotalSlots-res.RetiringSlots {
		res.BadSpecSlots = res.TotalSlots - res.RetiringSlots
	}
	res.FrontendSlots = frontendStall * uint64(cfg.Width)
	rem := res.TotalSlots - res.RetiringSlots - res.BadSpecSlots
	if res.FrontendSlots > rem {
		res.FrontendSlots = rem
	}
	res.BackendSlots = rem - res.FrontendSlots
	return res, countersOf(fe, mem), nil
}

// runWindow draws a window shaped like a tape's expansion: runs of
// ops sharing one pc (long and short), runs of pc-0 ops that bypass
// the I-cache, single ops alternating between two lines of one set,
// pcs in line 0, and enough distinct lines to evict from the 32 KB
// I-cache; loads and stores in number to wrap the LQ and SQ rings.
func runWindow(n int, seed uint64) []trace.MicroOp {
	ops := make([]trace.MicroOp, 0, n)
	s := seed
	next := func(mod uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33 % mod
	}
	for len(ops) < n {
		pc := trace.PC(0x400000 + next(3000)*16)
		run := int(1 + next(6))
		switch next(8) {
		case 0:
			run = int(50 + next(400))
		case 1:
			pc = 0
		case 2:
			pc = trace.PC(16 * next(4)) // line 0
		case 3: // two lines 32 KB/8 apart: the same set
			for i := 0; i < run*2; i++ {
				ops = append(ops, trace.MicroOp{PC: pc + trace.PC(i%2)*4096, Class: trace.OpOther})
			}
			continue
		}
		op := trace.MicroOp{PC: pc, Class: trace.OpClass(next(uint64(trace.NumClasses)))}
		for i := 0; i < run; i++ {
			switch op.Class {
			case trace.OpLoad, trace.OpStore:
				op.Addr, op.Size = 0x10000000+next(1<<22), 8
			case trace.OpBranch:
				op.Taken = next(3) != 0
			}
			ops = append(ops, op)
		}
	}
	return ops[:n]
}

// TestRunMatchesPerOpReference: batching same-line fetches and data
// accesses, wrapping the ring indices and the branch-free stalls and
// unit bookings changed no cycle of the model and no counter of any
// cache level.
func TestRunMatchesPerOpReference(t *testing.T) {
	windows := [][]trace.MicroOp{
		runWindow(60_000, 1), runWindow(60_000, 2), mixedWindow(30_000, 3),
		mkOps(1000, trace.OpLoad)[:100],                                                // shorter than every ring
		{{Class: trace.OpOther}, {Class: trace.OpOther}},                               // never touches the I-cache
		{{PC: 16, Class: trace.OpOther}, {PC: 32, Class: trace.OpBranch, Taken: true}}, // ends inside a batch, in line 0
	}
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		want, wantC, err := refRun(s, w)
		if err != nil {
			t.Fatal(err)
		}
		got, gotC, err := runCounted(s, trace.WindowOf(w))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("window %d: Run\n%+v\nper-op reference\n%+v", i, *got, *want)
		}
		if gotC != wantC {
			t.Errorf("window %d: caches after Run %+v, after the per-op reference %+v", i, gotC, wantC)
		}
	}
}

// TestFUPoolMatchesScan: the sorted pool books what the scanning pool
// it replaced books — the same start for every request and the same
// multiset of free times after it — for pools of one to eight units,
// idle and congested.
func TestFUPoolMatchesScan(t *testing.T) {
	for k := 1; k <= 8; k++ {
		p, ref := newFUPool(k), newScanPool(k)
		seed, clock := uint64(k), uint64(0)
		for n := 0; n < 3000; n++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			clock += seed >> 62 // ready drifts forward, with jitter below
			ready, busy := clock+seed>>33%8, seed>>40%9
			if got, want := p.reserve(ready, busy), ref.reserve(ready, busy); got != want {
				t.Fatalf("k=%d call %d: reserve(%d, %d) = %d, the scan's %d", k, n, ready, busy, got, want)
			}
			free := slices.Clone(ref.free)
			slices.Sort(free)
			if !slices.Equal(p.free, free) {
				t.Fatalf("k=%d call %d: free times %v, the scan's %v", k, n, p.free, free)
			}
		}
	}
}

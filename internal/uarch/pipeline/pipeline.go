// Package pipeline implements a trace-driven out-of-order core model in
// the style of the paper's simulation methodology: a machine.Machine's
// reorder buffer, load/store queues, per-class functional units, live
// branch predictor and cache hierarchy. It replays micro-op windows
// recorded by the instrumentation layer and produces cycle counts,
// per-resource stall counters (Fig. 6e–h) and the slot accounting that
// feeds top-down analysis (Fig. 5).
//
// The model is timestamp-based: each micro-op's fetch, dispatch, issue,
// completion and retirement cycles are derived in one in-order pass with
// ring buffers for structural resources, the standard fast-OoO-model
// construction (interval simulation).
package pipeline

import (
	"context"
	"fmt"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/machine"
	"vcprof/internal/uarch/topdown"
)

// Broadwell returns the paper's machine.
func Broadwell() machine.Machine { return machine.Xeon() }

// validate checks the core's configuration. The predictor, BTB and L1I
// are checked where New builds them, the data hierarchy where a run
// acquires it.
func validate(c machine.Machine) error {
	if c.Width <= 0 || c.ROBSize <= c.Width || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("pipeline: invalid core geometry %+v", c)
	}
	if c.ALUs <= 0 || c.VecUnits <= 0 || c.LoadPorts <= 0 || c.StorePorts <= 0 || c.BranchUnits <= 0 {
		return fmt.Errorf("pipeline: invalid functional unit counts %+v", c)
	}
	if c.FrontendDepth < 1 || c.MispredictPenalty < 1 || c.VecLatency < 1 {
		return fmt.Errorf("pipeline: invalid latency parameters %+v", c)
	}
	return nil
}

// Result reports a replay.
type Result struct {
	Ops     uint64
	Cycles  uint64
	IPC     float64
	Retired uint64

	Branches    uint64
	Mispredicts uint64
	BranchMPKI  float64

	L1DMPKI float64
	L2MPKI  float64
	LLCMPKI float64

	// Stall-cycle accumulators, analogous to the overlapping
	// RESOURCE_STALLS.* counters of Fig. 6e–h.
	StallROB uint64
	StallRS  uint64
	StallLQ  uint64
	StallSQ  uint64
	StallFU  uint64

	// Slot accounting for top-down (Fig. 5).
	TotalSlots    uint64
	RetiringSlots uint64
	BadSpecSlots  uint64
	FrontendSlots uint64
	BackendSlots  uint64
}

// fuPool models k identical units by next-free timestamps.
type fuPool struct {
	free []uint64
}

func newFUPool(k int) *fuPool { return &fuPool{free: make([]uint64, k)} }

// reserve returns the earliest cycle ≥ ready at which a unit is free and
// books it until done.
func (f *fuPool) reserve(ready, busy uint64) (start uint64) {
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

// Sim replays micro-ops through the core model. It owns the front-end
// state; the machine's data hierarchy is acquired per run.
type Sim struct {
	cfg    machine.Machine
	pred   bpred.Predictor
	btb    *bpred.BTB
	icache *cache.Cache
}

// New builds a simulator of the machine.
func New(cfg machine.Machine) (*Sim, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	p, err := bpred.NewByName(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.NewBTB(cfg.BTBEntries, cfg.BTBWays)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, pred: p, btb: btb, icache: ic}, nil
}

// Run replays the window and returns the result. The simulator state
// (caches, predictor) is reset first, so runs are independent.
func (s *Sim) Run(win trace.Window) (*Result, error) {
	return s.RunCtx(context.Background(), win)
}

// flushEvery is the streaming granularity: every this many retired ops
// the replay pushes a provisional cumulative slot snapshot to any
// topdown accumulators on the context. Coarse enough that the nil
// check dominates on untelemetered runs, fine enough that a fig6-class
// window (hundreds of thousands of ops) flushes many times.
const flushEvery = 4096

// RunCtx is Run with a context carrying optional streaming top-down
// accumulators (topdown.WithAccumulator). Replay results are
// byte-identical with and without a consumer: streaming only reads the
// provisional slot state, it never alters the model.
func (s *Sim) RunCtx(ctx context.Context, win trace.Window) (*Result, error) {
	if win.Len() == 0 {
		return nil, fmt.Errorf("pipeline: empty trace")
	}
	cfg := s.cfg
	mem, err := cache.Acquire(cfg)
	if err != nil {
		return nil, err
	}
	defer mem.Release()
	prod := topdown.StartProducer(ctx)
	s.pred.Reset()
	s.btb.Reset()
	s.icache.Reset()
	res := &Result{Ops: uint64(win.Len())}

	alu := newFUPool(cfg.ALUs)
	vec := newFUPool(cfg.VecUnits)
	ldp := newFUPool(cfg.LoadPorts)
	stp := newFUPool(cfg.StorePorts)
	brp := newFUPool(cfg.BranchUnits)

	// Ring buffers of retirement/completion cycles for structural limits.
	retireRing := make([]uint64, cfg.ROBSize)
	loadRing := make([]uint64, cfg.LQSize)
	storeRing := make([]uint64, cfg.SQSize)
	// rob, lq and sq are the ring slots of the current op, load and
	// store: i, nLoads and nStores modulo the ring sizes, kept by
	// wrapping instead of three divisions per op.
	var nLoads, nStores, rob, lq, sq int

	var (
		fetchAvail    uint64 // earliest fetch cycle for the next op
		fetchInGroup  int
		lastRetire    uint64
		retireInCycle int
		lastLoadDone  uint64
		lastVecDone   uint64
		lastALUDone   uint64
		frontendStall uint64 // cycles fetch was forced idle (taken-branch bubbles, icache)

		// Only fetch touches the I-cache, so a fetch from the line the
		// previous fetch used is a hit on the line it touched last:
		// such fetches are counted here and accounted in one Repeat
		// when the line changes, which leaves the I-cache exactly as
		// one Access each would. The ops of a run share one pc, so only
		// its first looks: the rest follow it to the line it fetched.
		fetchLine = ^uint64(0) // no line yet
		sameLine  uint64
	)

	// The window is stepped run by run, and a run op by op: the model is
	// per instruction, so a run saves the reading of its instructions,
	// not their simulation. i is the op's index in the window.
	var run trace.Run
	i := 0
	for cur := win.Cursor(); cur.Next(&run); {
		pc, addr, size := uint64(run.PC), run.Addr, int(run.Size)
		for left := run.Count; left > 0; left, i = left-1, i+1 {
			// --- Fetch: width per cycle; icache miss and redirect bubbles.
			// Fetch cannot run more than a ROB's worth of ops ahead of
			// retirement: op i stalls in fetch until op i−ROBSize retires.
			if fetchInGroup >= cfg.Width {
				fetchAvail++
				fetchInGroup = 0
			}
			if i >= cfg.ROBSize {
				if robHead := retireRing[rob]; robHead+1 > fetchAvail {
					res.StallROB += robHead + 1 - fetchAvail
					fetchAvail = robHead + 1
					fetchInGroup = 0
				}
			}
			fetch := fetchAvail
			if left == run.Count && pc != 0 {
				if line := pc / cache.LineSize; line == fetchLine {
					sameLine++
				} else {
					if sameLine > 0 {
						s.icache.Repeat(sameLine, false)
						sameLine = 0
					}
					fetchLine = line
					if hit, _ := s.icache.Access(pc, false); !hit {
						// Instruction fetch miss: frontend bubble (L2 hit
						// latency — the synthetic code footprint fits L2 easily).
						fetch += uint64(cfg.L2.LatencyCyc)
						frontendStall += uint64(cfg.L2.LatencyCyc)
						fetchAvail = fetch
						fetchInGroup = 0
					}
				}
				sameLine += uint64(left - 1)
			}
			fetchInGroup++

			// --- Dispatch after the frontend pipeline.
			dispatch := fetch + uint64(cfg.FrontendDepth)

			// --- Ready: dependence on recent producers, class-based.
			// Dependences: real code has instruction-level parallelism, so
			// only a fraction of ops extend a producer chain; the modulo
			// pattern models unrolled kernels with several live chains.
			var ready uint64 = dispatch
			switch run.Class {
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
				ready = max(ready, lastVecDone, lastALUDone)
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
			switch run.Class {
			case trace.OpLoad:
				if nLoads >= cfg.LQSize {
					if lqHead := loadRing[lq]; lqHead > ready {
						res.StallLQ += lqHead - ready
						ready = lqHead
					}
				}
				start := ldp.reserve(ready, 1)
				res.StallFU += start - ready
				lat := mem.SpanAccess(addr, size, false)
				addr += run.Stride
				done = start + uint64(lat)
				loadRing[lq] = done
				nLoads++
				if lq++; lq == cfg.LQSize {
					lq = 0
				}
				lastLoadDone = done
			case trace.OpStore:
				if nStores >= cfg.SQSize {
					if sqHead := storeRing[sq]; sqHead > ready {
						res.StallSQ += sqHead - ready
						ready = sqHead
					}
				}
				start := stp.reserve(ready, 1)
				res.StallFU += start - ready
				mem.SpanAccess(addr, size, true) // fills line; store buffer hides latency
				addr += run.Stride
				done = start + 1
				storeRing[sq] = done
				nStores++
				if sq++; sq == cfg.SQSize {
					sq = 0
				}
			case trace.OpAVX, trace.OpSSE:
				start := vec.reserve(ready, 1)
				res.StallFU += start - ready
				done = start + uint64(cfg.VecLatency)
				lastVecDone = done
			case trace.OpBranch:
				start := brp.reserve(ready, 1)
				res.StallFU += start - ready
				done = start + 1
				res.Branches++
				// A counted loop's last iteration is its not-taken exit.
				taken := run.Taken && !(run.Exit && left == 1)
				if s.pred.Step(pc, taken) != taken {
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
				} else if taken {
					// Taken branches end the fetch group: a one-cycle bubble,
					// plus a redirect bubble when the target misses in the BTB.
					bubble := uint64(1)
					if _, hit := s.btb.Lookup(pc); !hit {
						bubble += 2
					}
					s.btb.Update(pc, pc+16)
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
			retireRing[rob] = retire
			if rob++; rob == cfg.ROBSize {
				rob = 0
			}

			if prod != nil && (i+1)%flushEvery == 0 {
				prod.Observe(classifySlots(cfg.Width, uint64(i+1), lastRetire+1, res.BadSpecSlots, frontendStall))
			}
		}
	}

	if sameLine > 0 {
		s.icache.Repeat(sameLine, false)
	}
	res.Cycles = lastRetire + 1
	res.Retired = res.Ops
	res.IPC = float64(res.Ops) / float64(res.Cycles)
	res.BranchMPKI = float64(res.Mispredicts) / (float64(res.Ops) / 1000)
	res.L1DMPKI, res.L2MPKI, res.LLCMPKI = mem.MPKI(res.Ops)

	sl := classifySlots(cfg.Width, res.Ops, res.Cycles, res.BadSpecSlots, frontendStall)
	res.TotalSlots, res.RetiringSlots, res.BadSpecSlots, res.FrontendSlots, res.BackendSlots =
		sl.Total, sl.Retiring, sl.BadSpec, sl.Frontend, sl.Backend
	prod.Commit(sl)
	flushObs(res, mem)
	return res, nil
}

// classifySlots is the slot accounting of a window, whole or partly
// replayed: clamped in the order retiring → bad-spec → frontend, with
// backend the remainder, so the final classes and every streamed
// cumulative snapshot sum to exactly their total.
func classifySlots(width int, retired, cycles, badspec, frontendStall uint64) topdown.Slots {
	sl := topdown.Slots{Total: cycles * uint64(width)}
	sl.Retiring = min(retired, sl.Total)
	sl.BadSpec = min(badspec, sl.Total-sl.Retiring)
	sl.Frontend = min(frontendStall*uint64(width), sl.Total-sl.Retiring-sl.BadSpec)
	sl.Backend = sl.Total - sl.Retiring - sl.BadSpec - sl.Frontend
	return sl
}

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

	"vcprof/internal/memo"
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

// fuPool models k identical units by next-free timestamps, kept sorted
// ascending: only the multiset of free times decides when an op starts.
type fuPool struct {
	free []uint64
}

func newFUPool(k int) *fuPool { return &fuPool{free: make([]uint64, k)} }

// reserve returns the earliest cycle ≥ ready at which a unit is free and
// books it until start+busy: the earliest free time leaves the multiset
// and start+busy, never below it, goes in, a min and a max a slot.
func (f *fuPool) reserve(ready, busy uint64) (start uint64) {
	free := f.free
	start = max(ready, free[0])
	v, last := start+busy, len(free)-1
	for j := 0; j < last; j++ {
		free[j] = min(free[j+1], max(free[j], v))
	}
	free[last] = max(free[last], v)
	return start
}

// Sim replays micro-ops through the core model. It holds only the
// machine: a run borrows its front end and data hierarchy, so one Sim
// may replay windows concurrently.
type Sim struct{ cfg machine.Machine }

// New builds a simulator of the machine. A bad predictor name, BTB or
// L1I geometry shows when it borrows a front end.
func New(cfg machine.Machine) (*Sim, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	fe, err := acquireFront(cfg)
	if err != nil {
		return nil, err
	}
	fe.release(cfg)
	return &Sim{cfg}, nil
}

// frontEnd is the core's front-end state, borrowed for one run.
type frontEnd struct {
	pred   bpred.Predictor
	btb    *bpred.BTB
	icache *cache.Cache
}

// frontFree holds idle front ends of the paper machine between runs:
// each part's Reset is exactly cold, so a used one is as good as new.
var frontFree memo.Free[machine.Machine, *frontEnd]

// acquireFront returns a cold front end of m, the caller's until
// release.
func acquireFront(m machine.Machine) (*frontEnd, error) {
	if fe, ok := frontFree.Take(m); ok {
		fe.pred.Reset()
		fe.btb.Reset()
		fe.icache.Reset()
		return fe, nil
	}
	p, err := bpred.NewByName(m.Predictor)
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(m.L1I)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.NewBTB(m.BTBEntries, m.BTBWays)
	if err != nil {
		return nil, err
	}
	return &frontEnd{p, btb, ic}, nil
}

// release hands back a front end of m; another machine's is dropped.
func (fe *frontEnd) release(m machine.Machine) {
	if m == machine.Xeon() {
		frontFree.Give(m, fe)
	}
}

// Run replays the window and returns the result. Every run starts from
// a cold predictor, BTB and caches, so runs are independent.
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
	fe, err := acquireFront(s.cfg)
	if err != nil {
		return nil, err
	}
	defer fe.release(s.cfg)
	mem, err := cache.Acquire(s.cfg)
	if err != nil {
		return nil, err
	}
	defer mem.Release()
	return s.replay(ctx, win, fe, mem), nil
}

// replay is RunCtx on a cold front end and data hierarchy the caller
// holds, whose counters the caller may read afterwards.
func (s *Sim) replay(ctx context.Context, win trace.Window, fe *frontEnd, mem *cache.Hierarchy) *Result {
	cfg := s.cfg
	prod := topdown.StartProducer(ctx)
	res := &Result{Ops: uint64(win.Len())}

	alu := newFUPool(cfg.ALUs)
	vec := newFUPool(cfg.VecUnits)
	ldp := newFUPool(cfg.LoadPorts)
	stp := newFUPool(cfg.StorePorts)
	brp := newFUPool(cfg.BranchUnits)

	// Ring buffers for the structural limits: the cycles the last ROBSize
	// ops free their ROB entries for fetch (retirement + 1), and the
	// completion cycles of the last loads and stores. A slot not yet
	// written holds 0, which bounds nothing.
	retireRing := make([]uint64, cfg.ROBSize)
	loadRing := make([]uint64, cfg.LQSize)
	storeRing := make([]uint64, cfg.SQSize)
	// rob, lq and sq are the ring slots of the current op, load and
	// store, kept by wrapping instead of three divisions per op.
	var rob, lq, sq int

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
		// one Access each would.
		fetchLine = ^uint64(0) // no line yet
		sameLine  uint64

		// The same rule on the data side (Hierarchy.Run's): an access
		// wholly inside the line its run's previous access ended on is
		// an L1 hit, counted until the line changes or the run ends.
		follow uint64
		l1Lat  = mem.L1.Config().LatencyCyc
	)

	// The window is stepped run by run, and a run op by op: the model is
	// per instruction, so a run saves the reading of its instructions,
	// not their simulation. i is the op's index in the window.
	var run trace.Run
	i := 0
	for cur := win.Cursor(); cur.Next(&run); {
		pc := uint64(run.PC)
		// The ops of a run share one pc, so its first fetch looks in the
		// I-cache, once, and the rest follow it to the line it fetched.
		var miss uint64 // the first fetch's bubble
		if pc != 0 {
			if line := pc / cache.LineSize; line == fetchLine {
				sameLine++
			} else {
				if sameLine > 0 {
					fe.icache.Repeat(sameLine, false)
					sameLine = 0
				}
				fetchLine = line
				if hit, _ := fe.icache.Access(pc, false); !hit {
					// Instruction fetch miss: frontend bubble (L2 hit
					// latency — the synthetic code footprint fits L2 easily).
					miss = uint64(cfg.L2.LatencyCyc)
				}
			}
			sameLine += uint64(run.Count - 1)
		}
		addr, size := run.Addr, max(int(run.Size), 1)
		span := uint64(size - 1)
		dline := addr + cache.LineSize // no data line yet: the first access walks
		for left := run.Count; left > 0; left, i = left-1, i+1 {
			// --- Fetch: width per cycle; icache miss and redirect bubbles.
			if fetchInGroup >= cfg.Width {
				fetchAvail++
				fetchInGroup = 0
			}
			// Fetch cannot run more than a ROB's worth of ops ahead of
			// retirement: op i stalls in fetch until op i−ROBSize retires.
			nf := max(fetchAvail, retireRing[rob])
			res.StallROB += nf - fetchAvail
			fetch := nf + miss // and after the run's I-cache miss
			frontendStall += miss
			if fetch != fetchAvail {
				fetchInGroup = 0
			}
			fetchAvail, miss = fetch, 0
			fetchInGroup++

			// --- Dispatch after the frontend pipeline.
			dispatch := fetch + uint64(cfg.FrontendDepth)

			// --- Ready on recent producers, class-based, then issue on a
			// functional unit and execute. Dependences: real code has
			// instruction-level parallelism, so only a fraction of ops
			// extend a producer chain; the modulo pattern models unrolled
			// kernels with several live chains.
			var ready, done uint64 = dispatch, 0
			switch run.Class {
			case trace.OpLoad:
				if i%4 == 0 {
					ready = max(ready, lastALUDone) // address generation
				}
				nr := max(ready, loadRing[lq])
				res.StallLQ += nr - ready
				start := ldp.reserve(nr, 1)
				res.StallFU += start - nr
				lat := l1Lat
				if off := addr - dline; off < cache.LineSize && off+span < cache.LineSize {
					follow++
				} else {
					if follow > 0 {
						mem.L1.Repeat(follow, false)
						follow = 0
					}
					dline = (addr + span) &^ (cache.LineSize - 1)
					lat = mem.SpanAccess(addr, size, false)
				}
				addr += run.Stride
				done = start + uint64(lat)
				loadRing[lq] = done
				if lq++; lq == cfg.LQSize {
					lq = 0
				}
				lastLoadDone = done
			case trace.OpStore:
				ready = max(ready, lastVecDone, lastALUDone)
				nr := max(ready, storeRing[sq])
				res.StallSQ += nr - ready
				start := stp.reserve(nr, 1)
				res.StallFU += start - nr
				// A store fills its line; the store buffer hides latency.
				if off := addr - dline; off < cache.LineSize && off+span < cache.LineSize {
					follow++
				} else {
					if follow > 0 {
						mem.L1.Repeat(follow, true)
						follow = 0
					}
					dline = (addr + span) &^ (cache.LineSize - 1)
					mem.SpanAccess(addr, size, true)
				}
				addr += run.Stride
				done = start + 1
				storeRing[sq] = done
				if sq++; sq == cfg.SQSize {
					sq = 0
				}
			case trace.OpAVX, trace.OpSSE:
				if i%2 == 0 {
					ready = max(ready, lastLoadDone) // consume a loaded operand
				}
				if i%4 == 1 {
					ready = max(ready, lastVecDone) // accumulation chain
				}
				start := vec.reserve(ready, 1)
				res.StallFU += start - ready
				done = start + uint64(cfg.VecLatency)
				lastVecDone = done
			case trace.OpBranch:
				// Compare feeding the branch: flags come from recent ALU work,
				// or from a load for data-dependent decisions.
				if i%2 == 0 {
					ready = max(ready, lastALUDone)
				} else {
					ready = max(ready, lastLoadDone)
				}
				start := brp.reserve(ready, 1)
				res.StallFU += start - ready
				done = start + 1
				res.Branches++
				// A counted loop's last iteration is its not-taken exit.
				taken := run.Taken && !(run.Exit && left == 1)
				if fe.pred.Step(pc, taken) != taken {
					res.Mispredicts++
					// Redirect: fetch restarts after the branch resolves plus
					// the flush/refill penalty. The wasted slots are the
					// penalty window (wrong-path work plus refill bubbles).
					nf := max(fetchAvail, done+uint64(cfg.MispredictPenalty))
					if nf != fetchAvail {
						fetchInGroup = 0
					}
					fetchAvail = nf
					res.BadSpecSlots += uint64(cfg.MispredictPenalty) * uint64(cfg.Width)
				} else if taken {
					// Taken branches end the fetch group: a one-cycle bubble,
					// plus a redirect bubble when the target misses in the BTB.
					bubble := uint64(1)
					if _, hit := fe.btb.Lookup(pc); !hit {
						bubble += 2
					}
					fe.btb.Update(pc, pc+16)
					fetchAvail += bubble
					fetchInGroup = 0
					frontendStall += bubble
				}
			default: // OpOther
				if i%3 == 0 {
					ready = max(ready, lastALUDone)
				}
				if i%8 == 2 {
					ready = max(ready, lastLoadDone)
				}
				start := alu.reserve(ready, 1)
				res.StallFU += start - ready
				done = start + 1
				lastALUDone = done
			}
			res.StallRS += ready - dispatch // ready ≥ dispatch

			// --- Retire in order, width per cycle: not before done, nor
			// before the previous op, nor in its cycle once that is full.
			var full uint64
			if retireInCycle >= cfg.Width {
				full = 1
			}
			retire := max(done, lastRetire+full)
			if retire != lastRetire {
				retireInCycle = 0
			}
			retireInCycle++
			lastRetire = retire
			retireRing[rob] = retire + 1
			if rob++; rob == cfg.ROBSize {
				rob = 0
			}

			if prod != nil && (i+1)%flushEvery == 0 {
				prod.Observe(classifySlots(cfg.Width, uint64(i+1), lastRetire+1, res.BadSpecSlots, frontendStall))
			}
		}
		if follow > 0 {
			mem.L1.Repeat(follow, run.Class == trace.OpStore)
			follow = 0
		}
	}

	if sameLine > 0 {
		fe.icache.Repeat(sameLine, false)
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
	return res
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

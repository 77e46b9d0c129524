package trace

// BranchSink consumes dynamic conditional-branch events as they happen
// (live branch-predictor simulation, the perf-counter substitute).
type BranchSink interface {
	Branch(pc PC, taken bool)
}

// MemSink consumes dynamic memory accesses as they happen (live cache
// simulation, the perf-counter substitute).
type MemSink interface {
	Access(addr uint64, size int, store bool)
}

// LoopSink is a BranchSink that also consumes a counted loop's
// backward branch as one run: iters-1 taken outcomes at pc, then one
// not taken (iters ≥ 1). Loop(pc, n) must leave the sink in the state
// n Branch calls would.
type LoopSink interface {
	BranchSink
	Loop(pc PC, iters int)
}

// RunSink is a MemSink that also consumes a strided run as one call:
// count accesses of size bytes, the i-th at addr + i·stride (count ≥ 1).
// Run must leave the sink in the state count Access calls would.
type RunSink interface {
	MemSink
	Run(addr uint64, count, stride, size int, store bool)
}

// unrolledBranches adapts a per-event BranchSink to the run protocol.
// It and unrolledAccesses are the only places a run is expanded into
// events for a sink.
type unrolledBranches struct{ BranchSink }

// asLoopSink returns s itself when it consumes runs, and s behind the
// unrolling adapter otherwise.
func asLoopSink(s BranchSink) LoopSink {
	if ls, ok := s.(LoopSink); ok {
		return ls
	}
	return unrolledBranches{s}
}

func (u unrolledBranches) Loop(pc PC, iters int) {
	for i := 1; i < iters; i++ {
		u.Branch(pc, true)
	}
	u.Branch(pc, false)
}

// unrolledAccesses adapts a per-event MemSink to the run protocol.
type unrolledAccesses struct{ MemSink }

func asRunSink(s MemSink) RunSink {
	if rs, ok := s.(RunSink); ok {
		return rs
	}
	return unrolledAccesses{s}
}

func (u unrolledAccesses) Run(addr uint64, count, stride, size int, store bool) {
	for i := 0; i < count; i++ {
		u.Access(addr, size, store)
		addr += uint64(stride)
	}
}

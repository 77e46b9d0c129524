package trace

// refRecorder is the per-op window recorder the tape replaced, moved
// here as the oracle of the differential wall (verbatim but for the
// size it keeps, which is the format's: 1..255): it sees every
// event with the dynamic index of its first instruction and appends the
// ops that fall inside [Start, Start+Limit) one at a time.
type refRecorder struct {
	Start uint64
	Limit uint64
	Ops   []MicroOp
}

func (r *refRecorder) inWindow(idx uint64) bool {
	return idx >= r.Start && idx < r.Start+r.Limit
}

// ops expands a batched non-memory event whose first dynamic index is
// firstIdx.
func (r *refRecorder) ops(firstIdx uint64, class OpClass, n int) {
	if firstIdx+uint64(n) <= r.Start || firstIdx >= r.Start+r.Limit {
		return
	}
	pc := classPC(class)
	for i := 0; i < n; i++ {
		if r.inWindow(firstIdx + uint64(i)) {
			r.Ops = append(r.Ops, MicroOp{PC: pc, Class: class})
		}
	}
}

func (r *refRecorder) mems(firstIdx uint64, pc PC, addr uint64, count, stride, size int, store bool) {
	if firstIdx+uint64(count) <= r.Start || firstIdx >= r.Start+r.Limit {
		return
	}
	class := OpLoad
	if store {
		class = OpStore
	}
	sz := uint8(min(max(size, 1), 255))
	a := addr
	for i := 0; i < count; i++ {
		if r.inWindow(firstIdx + uint64(i)) {
			r.Ops = append(r.Ops, MicroOp{PC: pc, Addr: a, Class: class, Size: sz})
		}
		a += uint64(stride)
	}
}

func (r *refRecorder) branch(idx uint64, pc PC, taken bool) {
	if r.inWindow(idx) {
		r.Ops = append(r.Ops, MicroOp{PC: pc, Class: OpBranch, Taken: taken})
	}
}

func (r *refRecorder) loop(firstIdx uint64, pc PC, iters int) {
	if firstIdx+uint64(iters) <= r.Start || firstIdx >= r.Start+r.Limit {
		return
	}
	for i := 0; i < iters; i++ {
		if r.inWindow(firstIdx + uint64(i)) {
			r.Ops = append(r.Ops, MicroOp{PC: pc, Class: OpBranch, Taken: i < iters-1})
		}
	}
}

// Branches returns only the conditional-branch ops of the window, the
// input format of the CBP harness.
func (r *refRecorder) Branches() []MicroOp {
	out := make([]MicroOp, 0, len(r.Ops)/16)
	for _, op := range r.Ops {
		if op.IsBranch() {
			out = append(out, op)
		}
	}
	return out
}

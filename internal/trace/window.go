package trace

// Window is a read-only view of a stretch of a tape: the form a
// recorded window takes for every reader. The core model steps a Cursor
// over it, the CBP harness takes its Branches, a cache study Plays it
// into a hierarchy; none of them copies the instructions out. A window
// of a finished tape is immutable, so any number of goroutines may read
// one at once, each with its own cursor. The zero Window is empty.
type Window struct {
	tape       *Tape
	start, end uint64 // dynamic instruction indices, clipped to the run
}

// Len returns the number of instructions in the window.
func (w Window) Len() int { return int(w.end - w.start) }

// Run is the share of one record that lies inside a window: Count
// consecutive instructions of one class at one pc.
type Run struct {
	Addr   uint64 // loads and stores: the first access's address
	Stride uint64 // and the step to the next, two's complement
	Count  int
	PC     PC
	Class  OpClass
	Size   uint8 // loads and stores: access width in bytes
	Taken  bool  // branches: the outcome, of all but the last when Exit
	Exit   bool  // the run ends with a counted loop's not-taken exit
}

// set decodes the instructions [lo, hi) of the record w into r, field
// by field: a Run assembled elsewhere and copied here would be read
// back wider than it was written, which stalls on every record.
func (r *Run) set(w []uint64, lo, hi int) {
	hdr := w[0]
	r.Count, r.PC = hi-lo, PC(hdr>>32)
	r.Addr, r.Stride, r.Size, r.Taken, r.Exit = 0, 0, 0, false, false
	switch hdr & 3 {
	case recOp:
		r.Class = OpClass(hdr >> 8)
	case recMem:
		r.Class = OpLoad
		if hdr&recFlag != 0 {
			r.Class = OpStore
		}
		r.Addr, r.Stride, r.Size = w[1]+uint64(lo)*w[2], w[2], uint8(hdr>>8)
	default:
		r.Class = OpBranch
		r.Taken = hdr&recFlag != 0
		r.Exit = hdr&3 == recLoop && hi == countOf(hdr)
	}
}

// words encodes the run as one record, the inverse of set. A loop cut
// before its exit is, from there on, a run of taken branches.
func (r Run) words() ([3]uint64, int) {
	hdr := header(recOp, r.Count, r.PC)
	switch {
	case r.Class == OpLoad || r.Class == OpStore:
		hdr |= recMem | uint64(r.Size)<<8
		if r.Class == OpStore {
			hdr |= recFlag
		}
		return [3]uint64{hdr, r.Addr, r.Stride}, 3
	case r.Class != OpBranch:
		hdr |= uint64(r.Class) << 8
	case r.Exit:
		hdr |= recLoop | recFlag
	case r.Taken:
		hdr |= recBranch | recFlag
	default:
		hdr |= recBranch
	}
	return [3]uint64{hdr}, 1
}

// recWords returns the length in words of the record hdr begins.
func recWords(hdr uint64) int {
	if hdr&3 == recMem {
		return 3
	}
	return 1
}

// put appends the run as one record.
func (t *Tape) put(r Run) {
	w, n := r.words()
	if c := t.reserve(n, r.Count, r.Class == OpBranch); c != nil {
		*c = append(*c, w[:n]...)
	}
}

// WindowOf returns a window holding exactly ops, one record each: the
// way a hand-built instruction list reaches the readers of windows.
// Address and size are kept for loads and stores, the outcome for
// branches.
func WindowOf(ops []MicroOp) Window {
	t := &Tape{}
	t.Keep(0, uint64(len(ops)))
	for _, op := range ops {
		t.put(Run{Addr: op.Addr, Count: 1, PC: op.PC, Class: op.Class, Size: op.Size, Taken: op.Taken})
	}
	return t.Window(0, t.total)
}

// Cursor steps through a window's runs in order. It is a small value
// that allocates nothing; copy it to remember a position.
type Cursor struct {
	chunk []uint64   // the unread records of the chunk being read
	rest  [][]uint64 // the chunks after it
	skip  int        // instructions ahead that lie before the window
	left  uint64     // instructions of the window not yet returned
}

// Cursor returns a cursor at the window's first instruction.
func (w Window) Cursor() Cursor {
	c := Cursor{left: w.end - w.start}
	if t := w.tape; c.left > 0 {
		ci := t.chunkOf(w.start)
		c.chunk, c.rest, c.skip = t.chunks[ci], t.chunks[ci+1:], int(w.start-t.heads[ci].first)
	}
	return c
}

// Next stores the window's next run in r, clipped at the window's
// edges, and reports whether there was one.
func (c *Cursor) Next(r *Run) bool {
	for c.left > 0 {
		if len(c.chunk) == 0 {
			c.chunk, c.rest = c.rest[0], c.rest[1:]
			continue
		}
		rec := c.chunk
		c.chunk = rec[recWords(rec[0]):]
		n, lo := countOf(rec[0]), c.skip
		if lo >= n { // the record ends before the window starts
			c.skip -= n
			continue
		}
		hi := int(min(uint64(n), uint64(lo)+c.left))
		c.skip = 0
		c.left -= uint64(hi - lo)
		r.set(rec, lo, hi)
		return true
	}
	return false
}

// branchCount returns the number of branch instructions in the window:
// the tape's own count for each chunk wholly inside it, and a walk of
// the part of each edge chunk inside it, so a window of a whole run
// walks nothing.
func (w Window) branchCount() int {
	t := w.tape
	if w.start == w.end {
		return 0
	}
	var n uint64
	for i := t.chunkOf(w.start); i < len(t.heads) && t.heads[i].first < w.end; i++ {
		lo, hi := t.heads[i].first, t.chunkEnd(i)
		if w.start <= lo && hi <= w.end {
			n += t.heads[i].branches
			continue
		}
		var r Run
		for c := (Window{t, max(lo, w.start), min(hi, w.end)}).Cursor(); c.Next(&r); {
			if r.Class == OpBranch {
				n += uint64(r.Count)
			}
		}
	}
	return int(n)
}

// list writes out the window's instructions, or only its branches, one
// MicroOp each in a slice sized exactly.
func (w Window) list(branches bool) []MicroOp {
	n := w.Len()
	if branches {
		n = w.branchCount()
	}
	out := make([]MicroOp, n)
	rest := out
	var r Run
	for c := w.Cursor(); c.Next(&r); {
		if branches && r.Class != OpBranch {
			continue
		}
		op := MicroOp{Addr: r.Addr, PC: r.PC, Class: r.Class, Size: r.Size, Taken: r.Taken}
		for i := range rest[:r.Count] {
			rest[i] = op
			op.Addr += r.Stride
		}
		if r.Exit {
			rest[r.Count-1].Taken = false
		}
		rest = rest[r.Count:]
	}
	return out
}

// MicroOps materialises the window one instruction at a time: the
// input of the per-op oracles the readers of runs are tested against,
// and of nothing else.
func (w Window) MicroOps() []MicroOp { return w.list(false) }

// Branches returns the conditional branches among the window's
// instructions, the CBP harness's input, without materialising the
// other ops.
func (w Window) Branches() []MicroOp { return w.list(true) }

// Play feeds the window's branches to b and its memory accesses to m
// as the runs they were recorded as, clipped at the window's edges; a
// sink without the run method sees every event, as one attached to a
// Ctx does. A nil sink is skipped. A loop cut short by the window's end
// has no not-taken outcome, so it arrives as taken branches.
func (w Window) Play(b BranchSink, m MemSink) {
	var ls LoopSink
	if b != nil {
		ls = asLoopSink(b)
	}
	var rs RunSink
	if m != nil {
		rs = asRunSink(m)
	}
	var r Run
	for c := w.Cursor(); c.Next(&r); {
		switch {
		case r.Class == OpLoad || r.Class == OpStore:
			if rs != nil {
				rs.Run(r.Addr, r.Count, int(r.Stride), int(r.Size), r.Class == OpStore)
			}
		case r.Class != OpBranch || ls == nil:
		case r.Exit:
			ls.Loop(r.PC, r.Count)
		default:
			for range r.Count {
				ls.Branch(r.PC, r.Taken)
			}
		}
	}
}

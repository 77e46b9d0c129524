package trace

// MicroOp is one dynamic instruction written out: an entry of the CBP
// harness's branch lists, the unit a hand-built window is assembled
// from, and the input of the per-op oracles. It is 16 bytes (Addr
// first, a 32-bit PC).
type MicroOp struct {
	Addr  uint64 // memory ops: effective address; others: 0
	PC    PC
	Class OpClass
	Size  uint8 // memory ops: access width in bytes
	Taken bool  // branches: outcome
}

// IsBranch reports whether the op is a conditional branch.
func (o MicroOp) IsBranch() bool { return o.Class == OpBranch }

// Recorder writes the run of the Ctx it is attached to onto its Tape,
// and holds one window cut from it: the paper traces a fixed-length
// interval (1 billion instructions, scaled here) roughly halfway
// through the encode rather than the whole multi-hour run, and where
// halfway is is known only once the run is over. The zero Recorder is
// ready to attach.
type Recorder struct {
	// Start and Limit bound the window in dynamic instruction indices
	// and Ops is the view of its instructions, those the run has in
	// [Start, Start+Limit); all three are set by Cut.
	Start uint64
	Limit uint64
	Ops   Window
	Tape  Tape
}

// Cut places the window at [start, start+limit), which the tape must
// hold, and lets go of the rest of the tape; a window reaching past the
// end of the run holds the instructions that exist. The tape is not
// written again: readers share the window from here on.
func (r *Recorder) Cut(start, limit uint64) {
	r.Start, r.Limit = start, limit
	r.Tape.Trim(start, limit)
	r.Ops = r.Tape.Window(start, limit)
}

// classPC returns a stable synthetic PC for batched anonymous ops of a
// class (vector arithmetic bursts and similar), registered lazily.
var classPCs [NumClasses]PC

func init() {
	for c := OpClass(0); c < NumClasses; c++ {
		classPCs[c] = Site("trace/bulk." + c.String())
	}
}

func classPC(c OpClass) PC { return classPCs[c] }

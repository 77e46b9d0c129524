package trace

// Ctx is an instrumentation context. Kernels call its methods to report
// the abstract instructions they execute. A nil *Ctx is valid and every
// method is a cheap no-op on it, so un-instrumented runs (wall-clock
// thread-scaling measurements) pay almost nothing.
//
// A Ctx always counts the instruction mix. Optional sinks add live
// branch-predictor and cache simulation; an optional Recorder keeps the
// run on a Tape, from which micro-op windows are cut for replay; an
// optional Profile accumulates gprof-style per-function instruction
// counts. Every report adds to the mix and to the active stage, then
// tests one flag: a context with nothing attached stops there, and only
// a hooked one goes on to charge the profile, feed the sinks and write
// the tape, in that order. The hottest kernels skip even those calls on
// a count-only context: they add their counts through a Tally.
type Ctx struct {
	// What every report touches, together at the front.
	Mix    Mix
	stages StageCounts
	stage  Stage
	hooked bool // a sink, recorder or profile is attached

	branchSinks []LoopSink
	memSinks    []RunSink
	tape        *Tape
	prof        *Profile

	cur   FuncID
	stack []FuncID
}

// New returns an empty counting context.
func New() *Ctx { return &Ctx{} }

// Reset makes c an empty counting context again, as New returns, and
// keeps its call stack's storage: a context reused per task allocates
// nothing once warm. Whatever was attached is detached.
func (c *Ctx) Reset() { *c = Ctx{stack: c.stack[:0]} }

// AttachBranchSink adds a live branch-event consumer. A sink that is
// also a LoopSink receives each Loop as one call; any other sink is
// wrapped once, here, and sees the loop's events one by one. With
// several sinks a run goes to each in attach order before the next
// run is issued.
func (c *Ctx) AttachBranchSink(s BranchSink) {
	c.branchSinks = append(c.branchSinks, asLoopSink(s))
	c.hooked = true
}

// AttachMemSink adds a live memory-access consumer, by the same rule:
// a RunSink receives each Loads/Stores as one call, any other sink is
// wrapped and sees every access.
func (c *Ctx) AttachMemSink(s MemSink) {
	c.memSinks = append(c.memSinks, asRunSink(s))
	c.hooked = true
}

// AttachRecorder sets the recorder whose tape every instruction
// reported from here on is written to.
func (c *Ctx) AttachRecorder(r *Recorder) {
	c.tape = &r.Tape
	c.hooked = true
}

// AttachProfile sets the per-function profile accumulator.
func (c *Ctx) AttachProfile(p *Profile) {
	c.prof = p
	c.hooked = true
}

// Total returns the dynamic instruction count seen so far.
func (c *Ctx) Total() uint64 {
	if c == nil {
		return 0
	}
	return c.Mix.Total()
}

// Op reports n non-memory, non-branch instructions of the given class.
func (c *Ctx) Op(class OpClass, n int) {
	if c == nil || n <= 0 {
		return
	}
	c.Mix[class] += uint64(n)
	c.stages[c.stage] += uint64(n)
	if !c.hooked {
		return
	}
	c.profile(n)
	if c.tape != nil {
		c.tape.Op(class, n)
	}
}

// Loads reports count load instructions starting at addr with the given
// byte stride, each loading size bytes.
func (c *Ctx) Loads(pc PC, addr uint64, count, stride, size int) {
	if c == nil || count <= 0 {
		return
	}
	c.Mix[OpLoad] += uint64(count)
	c.stages[c.stage] += uint64(count)
	if c.hooked {
		c.memHooked(pc, addr, count, stride, size, false)
	}
}

// Stores reports count store instructions starting at addr with the
// given byte stride, each storing size bytes.
func (c *Ctx) Stores(pc PC, addr uint64, count, stride, size int) {
	if c == nil || count <= 0 {
		return
	}
	c.Mix[OpStore] += uint64(count)
	c.stages[c.stage] += uint64(count)
	if c.hooked {
		c.memHooked(pc, addr, count, stride, size, true)
	}
}

// memHooked is the hooked half of Loads and Stores.
func (c *Ctx) memHooked(pc PC, addr uint64, count, stride, size int, store bool) {
	c.profile(count)
	for _, s := range c.memSinks {
		s.Run(addr, count, stride, size, store)
	}
	if c.tape != nil {
		c.tape.Mem(pc, addr, count, stride, size, store)
	}
}

// Branch reports one conditional branch with its real outcome.
func (c *Ctx) Branch(pc PC, taken bool) {
	if c == nil {
		return
	}
	c.Mix[OpBranch]++
	c.stages[c.stage]++
	if !c.hooked {
		return
	}
	c.profile(1)
	for _, s := range c.branchSinks {
		s.Branch(pc, taken)
	}
	if c.tape != nil {
		c.tape.Branch(pc, taken)
	}
}

// Loop reports the branch behaviour of a counted loop that executes
// iters times: the backward branch is taken iters-1 times and finally
// not taken. A zero-iteration loop reports one not-taken branch (the
// guard test).
func (c *Ctx) Loop(pc PC, iters int) {
	if c == nil {
		return
	}
	if iters < 1 {
		c.Branch(pc, false)
		return
	}
	c.Mix[OpBranch] += uint64(iters)
	c.stages[c.stage] += uint64(iters)
	if !c.hooked {
		return
	}
	c.profile(iters)
	for _, s := range c.branchSinks {
		s.Loop(pc, iters)
	}
	if c.tape != nil {
		c.tape.Loop(pc, iters)
	}
}

// Step reports the bundle one step of a table-driven coder executes: a
// branch at pc with its outcome, then one load and one store of size
// bytes at addr (the context read and its adapted writeback), then ops
// OpOther instructions. It is exactly
//
//	c.Branch(pc, taken)
//	c.Loads(pc, addr, 1, stride, size)
//	c.Stores(pc, addr, 1, stride, size)
//	c.Op(OpOther, ops)
//
// so sinks, tape and profile see those events in that order. A coder
// counting on a count-only context adds the bundle through a Tally.
func (c *Ctx) Step(pc PC, taken bool, addr uint64, stride, size, ops int) {
	c.Branch(pc, taken)
	c.Loads(pc, addr, 1, stride, size)
	c.Stores(pc, addr, 1, stride, size)
	c.Op(OpOther, ops)
}

// Tally is a count-only context's counters seen from one kernel: the
// context's Mix and the counter of the stage the kernel attributes its
// work to. A kernel whose counts are known once its arithmetic is done
// asks for one, and when it is Ok adds them in place, a few adds per
// call where the per-event methods make a call per event. A Tally of a
// nil context (report nothing) or a hooked one (report event by event,
// as sinks, tape and profile need) is not Ok.
type Tally struct {
	c *Ctx
	s Stage
}

// Tally returns the Tally charging stage s, Ok only on a count-only
// context. Skipping BeginStage,
// EndStage, Enter and Leave on the Ok path loses nothing: on a context
// with nothing attached they change no counter.
func (c *Ctx) Tally(s Stage) Tally {
	if c == nil || c.hooked {
		return Tally{s: s} // s either way: a constant stage stays one
	}
	return Tally{c, s}
}

// Ok reports whether t counts in place.
func (t Tally) Ok() bool { return t.c != nil }

// Add counts n instructions of class, n ≥ 0, like Op on a count-only
// context. Both counters hang off the one context pointer, so the
// compiler can tell them apart and keep a run of Adds to the stage in
// a register.
func (t Tally) Add(class OpClass, n int) {
	t.c.Mix[class] += uint64(n)
	t.c.stages[t.s] += uint64(n)
}

// Span is what a context reported over a piece of work: the counts it
// added to its Mix and stage counters and, on a recording context, the
// records it wrote to the tape. A caller that repeats a pure piece of
// work on one context can run it once between Mark and Since, keep the
// span, and Repeat it for each repeat: the counters and the tape end
// exactly as if the work had run again.
type Span struct {
	mix      Mix
	stages   StageCounts
	from, to tapePos
}

// Mark snapshots c before a piece of work, and reports whether c can
// Repeat what it reports: a nil or count-only context can, and so can
// one whose only hook is a recorder shown the whole run. A context with
// a sink or a profile must see every event, and a tape told its window
// skips records, so a span of it need not hold the events.
func (c *Ctx) Mark() (Span, bool) {
	switch {
	case c == nil:
		return Span{}, true
	case !c.hooked:
		return Span{mix: c.Mix, stages: c.stages}, true
	case c.tape == nil || c.tape.keep || c.prof != nil || len(c.branchSinks)+len(c.memSinks) > 0:
		return Span{}, false
	}
	return Span{mix: c.Mix, stages: c.stages, from: c.tape.pos()}, true
}

// Since returns what c reported after m, a Mark that reported true.
func (c *Ctx) Since(m Span) Span {
	if c == nil {
		return Span{}
	}
	d := Span{mix: c.Mix, stages: c.stages.Sub(m.stages)}
	for i := range d.mix {
		d.mix[i] -= m.mix[i]
	}
	if c.tape != nil {
		d.from, d.to = m.from, c.tape.pos()
	}
	return d
}

// Repeat reports s, which Since returned on c, once more. It reports
// whether it did: on a recording context whose tape no longer holds the
// span's records it reports nothing, and the work must run again.
func (c *Ctx) Repeat(s *Span) bool {
	if c == nil {
		return true
	}
	if c.tape != nil && !c.tape.repeat(s.from, s.to) {
		return false
	}
	c.Mix.Add(&s.mix)
	c.stages.Add(&s.stages)
	return true
}

// profile charges n instructions to the current function.
func (c *Ctx) profile(n int) {
	if c.prof != nil {
		c.prof.ops(c.cur, uint64(n))
	}
}

// Enter records entry into a profiled function.
func (c *Ctx) Enter(fn FuncID) {
	if c == nil {
		return
	}
	c.stack = append(c.stack, c.cur)
	c.cur = fn
	if c.prof != nil {
		c.prof.call(fn)
	}
}

// Leave records return from the current profiled function.
func (c *Ctx) Leave() {
	if c == nil || len(c.stack) == 0 {
		return
	}
	c.cur = c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
}

// Merge folds the counters of another context into c (used to combine
// per-worker contexts after a parallel encode). Sinks and recorders are
// not merged; workers share sinks only if the sinks are thread-safe.
func (c *Ctx) Merge(o *Ctx) {
	if c == nil || o == nil {
		return
	}
	c.Mix.Add(&o.Mix)
	c.stages.Add(&o.stages)
	if c.prof != nil && o.prof != nil && c.prof != o.prof {
		c.prof.Merge(o.prof)
	}
}

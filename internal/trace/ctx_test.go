package trace

import "testing"

// countAll makes every reporting call once: 71 instructions.
func countAll(c *Ctx, pc PC) {
	c.Op(OpAVX, 16)
	c.Loads(pc, 0x1000, 8, 64, 32)
	c.Stores(pc, 0x2000, 4, 64, 32)
	c.Branch(pc, true)
	c.Loop(pc, 32)
	c.Step(pc, false, 0x3000, 8, 2, 6)
	c.Loop(pc, 0)
}

// TestCountOnlyDoesNotAllocate: with nothing attached, reporting is
// counting, and counting allocates nothing.
func TestCountOnlyDoesNotAllocate(t *testing.T) {
	c, pc := New(), Site("t/ctx.allocs")
	if n := testing.AllocsPerRun(1000, func() { countAll(c, pc) }); n != 0 {
		t.Fatalf("count-only reporting allocates %v allocs/op, want 0", n)
	}
	if got := c.Total(); got != 1001*71 {
		t.Fatalf("Total = %d after 1001 rounds, want %d", got, 1001*71)
	}
}

// TestRecordingDoesNotAllocate: once the tape's first chunk is open,
// recording a report appends words in place and allocates nothing.
func TestRecordingDoesNotAllocate(t *testing.T) {
	c, pc := New(), Site("t/ctx.record.allocs")
	var rec Recorder
	c.AttachRecorder(&rec)
	countAll(c, pc)
	if n := testing.AllocsPerRun(500, func() { countAll(c, pc) }); n != 0 {
		t.Fatalf("recording allocates %v allocs/op after the first chunk, want 0", n)
	}
	if got := len(rec.Tape.chunks); got != 1 {
		t.Fatalf("tape holds %d chunks, want 1: the guard outgrew its first chunk", got)
	}
}

// countingSink has only the per-event methods, so a context hands it
// runs through the unrolling adapters of sink.go.
type countingSink struct{ branches, accesses int }

func (s *countingSink) Branch(PC, bool)          { s.branches++ }
func (s *countingSink) Access(uint64, int, bool) { s.accesses++ }

// TestUnrollingAdaptersDoNotAllocate: unrolledBranches.Loop and
// unrolledAccesses.Run expand a run into events in place, allocating
// nothing, whether called directly or through a hooked context.
func TestUnrollingAdaptersDoNotAllocate(t *testing.T) {
	s, pc := &countingSink{}, Site("t/ctx.unrolled.allocs")
	ls, rs := asLoopSink(s), asRunSink(s)
	if _, ok := ls.(unrolledBranches); !ok {
		t.Fatalf("a Branch-only sink is attached as %T, not behind unrolledBranches", ls)
	}
	if _, ok := rs.(unrolledAccesses); !ok {
		t.Fatalf("an Access-only sink is attached as %T, not behind unrolledAccesses", rs)
	}
	if n := testing.AllocsPerRun(1000, func() { ls.Loop(pc, 32); rs.Run(0x1000, 8, 64, 32, false) }); n != 0 {
		t.Fatalf("the unrolling adapters allocate %v allocs/op, want 0", n)
	}
	c := New()
	c.AttachBranchSink(s)
	c.AttachMemSink(s)
	if n := testing.AllocsPerRun(1000, func() { countAll(c, pc) }); n != 0 {
		t.Fatalf("reporting to per-event sinks allocates %v allocs/op, want 0", n)
	}
	// 1001 rounds of each: 32 branches and 8 accesses directly; through
	// countAll a branch, a 32-iteration loop, a step's branch and a
	// zero-iteration loop's guard (35), and 8+4 accesses plus the
	// step's load and store (14).
	if s.branches != 1001*(32+35) || s.accesses != 1001*(8+14) {
		t.Fatalf("sink saw %d branches and %d accesses, want %d and %d", s.branches, s.accesses, 1001*(32+35), 1001*(8+14))
	}
}

// nopSink consumes runs and does nothing with them: what is left of a
// hooked report is the dispatch.
type nopSink struct{}

func (*nopSink) Branch(PC, bool)                 {}
func (*nopSink) Loop(PC, int)                    {}
func (*nopSink) Access(uint64, int, bool)        {}
func (*nopSink) Run(uint64, int, int, int, bool) {}

// BenchmarkCtx times one round of every reporting call on a context
// with nothing attached (count) and with a branch and a memory sink
// that do no work (hooked).
func BenchmarkCtx(b *testing.B) {
	pc := Site("t/ctx.bench")
	b.Run("count", func(b *testing.B) {
		c := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			countAll(c, pc)
		}
	})
	b.Run("hooked", func(b *testing.B) {
		c, s := New(), &nopSink{}
		c.AttachBranchSink(s)
		c.AttachMemSink(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			countAll(c, pc)
		}
	})
}

// TestTallyCountsLikeOp: a Tally is Ok only on a count-only context,
// and an Add there counts what Op would, charged to the Tally's stage
// whatever stage is active.
func TestTallyCountsLikeOp(t *testing.T) {
	var nilCtx *Ctx
	hooked := New()
	hooked.AttachRecorder(&Recorder{})
	if nilCtx.Tally(StageMotion).Ok() || hooked.Tally(StageMotion).Ok() {
		t.Fatal("a nil or hooked context handed out an Ok Tally")
	}
	tallied, opped := New(), New()
	tallied.BeginStage(StageQuant)
	tally := tallied.Tally(StageMotion)
	if !tally.Ok() {
		t.Fatal("a count-only context's Tally is not Ok")
	}
	prev := opped.BeginStage(StageMotion)
	for c := OpClass(0); c < NumClasses; c++ {
		tally.Add(c, int(c)+3)
		opped.Op(c, int(c)+3)
	}
	opped.EndStage(prev)
	tally.Add(OpAVX, 0)
	if tallied.Mix != opped.Mix || tallied.StageCounts() != opped.StageCounts() {
		t.Fatalf("tallied mix %v stages %v, Op's %v %v", tallied.Mix, tallied.StageCounts(), opped.Mix, opped.StageCounts())
	}
	if n := testing.AllocsPerRun(100, func() { tallied.Tally(StageEntropy).Add(OpBranch, 1) }); n != 0 {
		t.Fatalf("Tally allocates %v times a call", n)
	}
}

// TestReplayCountsLikeRerun: what a count-only context counted over a
// piece of work, replayed, leaves its Mix and stage counters where
// running the work again would, whichever stages the work charged.
func TestReplayCountsLikeRerun(t *testing.T) {
	pc := Site("t/ctx.replay")
	work := func(c *Ctx) {
		prev := c.BeginStage(StageTransform)
		countAll(c, pc)
		c.EndStage(prev)
		c.Op(OpSSE, 5) // charged to the caller's stage
	}
	replayed, rerun := New(), New()
	for _, c := range []*Ctx{replayed, rerun} {
		c.BeginStage(StageIntra)
		c.Op(OpOther, 7)
	}
	mark, ok := replayed.Mark()
	if !ok {
		t.Fatal("a count-only context cannot repeat a span")
	}
	work(replayed)
	d := replayed.Since(mark)
	if !replayed.Repeat(&d) || !replayed.Repeat(&d) {
		t.Fatal("a count-only context refused to repeat a span")
	}
	for i := 0; i < 3; i++ {
		work(rerun)
	}
	if replayed.Mix != rerun.Mix || replayed.StageCounts() != rerun.StageCounts() {
		t.Fatalf("replayed mix %v stages %v, rerun %v %v", replayed.Mix, replayed.StageCounts(), rerun.Mix, rerun.StageCounts())
	}
}

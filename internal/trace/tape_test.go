package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestMicroOpIs16Bytes pins the layout every window's cost is quoted
// against: Addr, then a 32-bit PC and three bytes.
func TestMicroOpIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(MicroOp{}); n != 16 {
		t.Fatalf("MicroOp is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(PC(0)); n != 4 {
		t.Fatalf("PC is %d bytes, want 4", n)
	}
}

// event is one call a kernel makes on a Ctx, in the stage it is
// attributed to. A step's n is its OpOther count. A repeat reports
// again what the n events before it reported (all there are, if fewer),
// the way a memoised piece of work is reported again.
type event struct {
	kind            int // 0 Op, 1 Loads, 2 Stores, 3 Branch, 4 Loop, 5 Step, 6 repeat
	stage           Stage
	class           OpClass
	pc              PC
	addr            uint64
	n, stride, size int
	taken           bool
}

// emit reports the events to a Ctx with rec attached.
func emit(events []event, rec *Recorder) *Recorder {
	c := New()
	c.AttachRecorder(rec)
	report(c, events)
	return rec
}

// report makes each event's call on c, in its stage. A repeat goes
// through Mark, Since and Repeat, and where the context cannot repeat
// (or the span has left the tape) the events are reported again.
func report(c *Ctx, events []event) {
	type mark struct {
		span Span
		ok   bool
	}
	var marks []mark
	if slices.ContainsFunc(events, func(e event) bool { return e.kind == 6 }) {
		marks = make([]mark, len(events))
	}
	for i, e := range events {
		if marks != nil {
			marks[i].span, marks[i].ok = c.Mark()
		}
		if e.kind == 6 {
			a := max(i-e.n, 0)
			if s := c.Since(marks[a].span); !marks[a].ok || !c.Repeat(&s) {
				flat := flatten(events[:i])
				report(c, flat[len(flatten(events[:a])):])
			}
			continue
		}
		c.BeginStage(e.stage)
		switch e.kind {
		case 0:
			c.Op(e.class, e.n)
		case 1:
			c.Loads(e.pc, e.addr, e.n, e.stride, e.size)
		case 2:
			c.Stores(e.pc, e.addr, e.n, e.stride, e.size)
		case 3:
			c.Branch(e.pc, e.taken)
		case 4:
			c.Loop(e.pc, e.n)
		default:
			c.Step(e.pc, e.taken, e.addr, e.stride, e.size, e.n)
		}
	}
}

// flatten rewrites each repeat as the events it reports again.
func flatten(events []event) []event {
	var flat []event
	starts := make([]int, len(events))
	for i, e := range events {
		starts[i] = len(flat)
		if e.kind != 6 {
			flat = append(flat, e)
			continue
		}
		flat = append(flat, flat[starts[max(i-e.n, 0)]:]...)
	}
	return flat
}

// unbundle rewrites each repeat as its events and each step as the
// four calls it stands for.
func unbundle(events []event) []event {
	var out []event
	for _, e := range flatten(events) {
		if e.kind != 5 {
			out = append(out, e)
			continue
		}
		mem := event{stage: e.stage, pc: e.pc, addr: e.addr, n: 1, stride: e.stride, size: e.size}
		load, store := mem, mem
		load.kind, store.kind = 1, 2
		out = append(out,
			event{kind: 3, stage: e.stage, pc: e.pc, taken: e.taken},
			load, store,
			event{kind: 0, stage: e.stage, class: OpOther, n: e.n})
	}
	return out
}

// refWindow records the window of the same events the way the parent's
// Ctx drove its per-op recorder, and returns it with the run's total.
func refWindow(events []event, start, limit uint64) (*refRecorder, uint64) {
	r := &refRecorder{Start: start, Limit: limit}
	var total uint64
	for _, e := range unbundle(events) {
		switch {
		case e.kind <= 2 && e.n <= 0:
		case e.kind == 0:
			r.ops(total, e.class, e.n)
			total += uint64(e.n)
		case e.kind <= 2:
			r.mems(total, e.pc, e.addr, e.n, e.stride, e.size, e.kind == 2)
			total += uint64(e.n)
		case e.kind == 3 || e.n < 1:
			r.branch(total, e.pc, e.kind == 3 && e.taken)
			total++
		default:
			r.loop(total, e.pc, e.n)
			total += uint64(e.n)
		}
	}
	return r, total
}

// perEvent captures what a sink with neither run method sees.
type perEvent struct {
	branches []MicroOp
	accesses []MicroOp
}

func (p *perEvent) Branch(pc PC, taken bool) {
	p.branches = append(p.branches, MicroOp{PC: pc, Class: OpBranch, Taken: taken})
}

func (p *perEvent) Access(addr uint64, size int, store bool) {
	class := OpLoad
	if store {
		class = OpStore
	}
	p.accesses = append(p.accesses, MicroOp{Addr: addr, Class: class, Size: uint8(size)})
}

// checkWindow compares the three readers on one window with the
// reference recorder's per-op result, for three tapes: the run's own,
// that tape trimmed to the window, and one told the window beforehand.
func checkWindow(t testing.TB, events []event, rec *Recorder, start, limit uint64) {
	t.Helper()
	refLimit := limit
	if start+limit < start {
		// The reference's start+limit wraps and it records nothing; the
		// tape reads such a window as "to the end of the run".
		refLimit = ^uint64(0) - start
	}
	ref, total := refWindow(events, start, refLimit)
	where := fmt.Sprintf("window [%d, +%d) of %d", start, limit, total)
	checkTape(t, where+", whole tape", &rec.Tape, ref, total, start, limit)
	trimmed := rec.Tape
	trimmed.Trim(start, limit)
	checkTape(t, where+", trimmed tape", &trimmed, ref, total, start, limit)
	kept := &Recorder{}
	kept.Tape.Keep(start, limit)
	checkTape(t, where+", tape told the window", &emit(events, kept).Tape, ref, total, start, limit)
	// A window shorter than a chunk has its records in two at most.
	if most := int64(2 * chunkWords * 8); len(ref.Ops) < chunkWords && (trimmed.Bytes() > most || kept.Tape.Bytes() > most) {
		t.Fatalf("%s: trimmed tape holds %d bytes, tape told the window %d", where, trimmed.Bytes(), kept.Tape.Bytes())
	}
}

func checkTape(t testing.TB, where string, tape *Tape, ref *refRecorder, total, start, limit uint64) {
	t.Helper()
	if tape.Total() != total {
		t.Fatalf("%s: total %d", where, tape.Total())
	}
	checkBranchCounts(t, where, tape)
	if !tape.Holds(start, limit) {
		t.Fatalf("%s: not held", where)
	}
	win := tape.Window(start, limit)
	got := win.MicroOps()
	if len(got) != cap(got) {
		t.Fatalf("%s: MicroOps returned len %d cap %d, want an exact-size slice", where, len(got), cap(got))
	}
	if i := firstDiff(got, ref.Ops); i >= 0 {
		t.Fatalf("%s: MicroOps differs from the reference at op %d of %d/%d:\n got %+v\nwant %+v",
			where, i, len(got), len(ref.Ops), at(got, i), at(ref.Ops, i))
	}
	br, refBr := win.Branches(), ref.Branches()
	if len(br) != cap(br) {
		t.Fatalf("%s: Branches returned len %d cap %d, want an exact-size slice", where, len(br), cap(br))
	}
	if i := firstDiff(br, refBr); i >= 0 {
		t.Fatalf("%s: Branches differs from the reference at branch %d of %d/%d:\n got %+v\nwant %+v",
			where, i, len(br), len(refBr), at(br, i), at(refBr, i))
	}
	// Play, seen event by event through the unrolling adapters, is the
	// window's branch sequence and its access sequence.
	mem := make([]MicroOp, 0, len(got))
	for _, op := range got {
		if op.Class == OpLoad || op.Class == OpStore {
			op.PC = 0
			mem = append(mem, op)
		}
	}
	seen := perEvent{branches: make([]MicroOp, 0, len(br)), accesses: make([]MicroOp, 0, len(mem))}
	win.Play(&seen, &seen)
	if i := firstDiff(seen.branches, br); i >= 0 {
		t.Fatalf("%s: Play delivered a different branch %d of %d/%d", where, i, len(seen.branches), len(br))
	}
	if i := firstDiff(seen.accesses, mem); i >= 0 {
		t.Fatalf("%s: Play delivered a different access %d of %d/%d:\n got %+v\nwant %+v",
			where, i, len(seen.accesses), len(mem), at(seen.accesses, i), at(mem, i))
	}
}

// checkBranchCounts holds the tape's per-chunk branch counts to a
// cursor's walk of each chunk's runs, so the rule reserve is told a
// record's kind by is held to the one its readers decode.
func checkBranchCounts(t testing.TB, where string, tape *Tape) {
	t.Helper()
	if len(tape.heads) != len(tape.chunks) {
		t.Fatalf("%s: %d chunks, %d heads", where, len(tape.chunks), len(tape.heads))
	}
	for i := range tape.chunks {
		var n uint64
		var r Run
		for c := (Window{tape, tape.heads[i].first, tape.chunkEnd(i)}).Cursor(); c.Next(&r); {
			if r.Class == OpBranch {
				n += uint64(r.Count)
			}
		}
		if n != tape.heads[i].branches {
			t.Fatalf("%s: chunk %d holds %d branches, the tape counts %d", where, i, n, tape.heads[i].branches)
		}
	}
}

// firstDiff returns the first index at which a and b differ, -1 if
// they are equal.
func firstDiff(a, b []MicroOp) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func at(ops []MicroOp, i int) any {
	if i < len(ops) {
		return ops[i]
	}
	return "nothing"
}

// randomEvents draws a run stream with every shape the writers handle:
// negative and zero strides, sizes past 255, empty and zero-trip runs,
// and counts wider than a record's 16-bit field.
func randomEvents(rng *rand.Rand, n int) []event {
	pcs := Sites("t/tape", 8)
	events := make([]event, n)
	for i := range events {
		e := event{kind: rng.Intn(6), stage: Stage(rng.Intn(int(NumStages))), pc: pcs[rng.Intn(len(pcs))], n: rng.Intn(40)}
		if rng.Intn(max(200, n/4)) == 0 {
			e.n = maxCount - 2 + rng.Intn(3*maxCount)
		}
		switch e.kind {
		case 0:
			e.class = []OpClass{OpAVX, OpSSE, OpOther}[rng.Intn(3)]
		case 1, 2, 5:
			e.addr = 0x10000000 + uint64(rng.Intn(1<<20))
			e.stride = []int{1, 4, 64, 0, -8, -64, 640, 3}[rng.Intn(8)]
			e.size = []int{1, 4, 8, 32, 255, 256, 1000, 0}[rng.Intn(8)]
			if e.kind == 5 {
				e.taken = rng.Intn(2) == 0
				e.n -= 2 // a step with no ops, or a negative count, reports none
			}
		case 3:
			e.taken = rng.Intn(2) == 0
		default:
			e.n -= 2 // Loop(0) and Loop(-1) are the guard test alone
		}
		events[i] = e
	}
	return events
}

// TestTapeExpandMatchesRef is the differential wall: on seeded random
// run streams, every window the tape cuts — starting and ending inside
// runs, at 0, of one op, of the whole run and past its end — holds
// exactly what the per-op recorder kept, and a bare context, which
// takes the count-only path, counts what the recording one counts.
func TestTapeExpandMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 300
		if seed == 1 {
			n = 40_000 // several chunks
		}
		events := randomEvents(rng, n)
		rec := &Recorder{}
		c, bare := New(), New()
		c.AttachRecorder(rec)
		report(c, events)
		report(bare, events)
		total := rec.Tape.Total()
		if bare.Mix != c.Mix || bare.StageCounts() != c.StageCounts() || bare.Total() != c.Total() {
			t.Fatalf("seed %d: count-only context counts mix %v, stages %v, total %d; recording one %v, %v, %d",
				seed, bare.Mix, bare.StageCounts(), bare.Total(), c.Mix, c.StageCounts(), c.Total())
		}
		if sc := c.StageCounts(); c.Total() != c.Mix.Total() || c.Total() != sc.Total() || c.Total() != total {
			t.Fatalf("seed %d: Total %d, Mix.Total %d, StageCounts.Total %d, tape total %d: want all equal",
				seed, c.Total(), c.Mix.Total(), sc.Total(), total)
		}
		if seed == 1 && len(rec.Tape.chunks) < 3 {
			t.Fatalf("the long stream fills %d chunks, want at least 3", len(rec.Tape.chunks))
		}
		windows := [][2]uint64{
			{0, 1}, {0, total}, {0, total + 5}, {0, 0}, {total - 1, 10}, {total, 3}, {total + 9, 3},
			{total / 2, ^uint64(0)}, {1, total - 2},
		}
		for i := 0; i < 12-int(total>>18); i++ {
			start := uint64(rng.Int63n(int64(total)))
			windows = append(windows, [2]uint64{start, uint64(rng.Int63n(int64(total-start) + 50))})
		}
		// Windows whose edges sit on chunk seams.
		for _, h := range rec.Tape.heads[1:] {
			windows = append(windows, [2]uint64{h.first - 1, 2}, [2]uint64{h.first, 1}, [2]uint64{h.first - 7, 1000})
		}
		for _, w := range windows {
			checkWindow(t, events, rec, w[0], w[1])
		}
	}
}

// totalSink sees every event one by one and notes the context's Total
// as it stood when the event arrived, the way perf's top-down flusher
// reads it.
type totalSink struct {
	c    *Ctx
	seen []string
}

func (s *totalSink) Branch(pc PC, taken bool) {
	s.seen = append(s.seen, fmt.Sprintf("branch %#x %v @%d", pc, taken, s.c.Total()))
}

func (s *totalSink) Access(addr uint64, size int, store bool) {
	s.seen = append(s.seen, fmt.Sprintf("access %#x %d %v @%d", addr, size, store, s.c.Total()))
}

// wantSeen is what a totalSink sees from the events: each is counted
// before any sink is shown it, and a run reaches a per-event sink one
// event at a time.
func wantSeen(events []event) []string {
	var total uint64
	var seen []string
	for _, e := range unbundle(events) {
		switch {
		case e.kind <= 2 && e.n <= 0:
		case e.kind == 0:
			total += uint64(e.n)
		case e.kind <= 2:
			total += uint64(e.n)
			for i, addr := 0, e.addr; i < e.n; i, addr = i+1, addr+uint64(e.stride) {
				seen = append(seen, fmt.Sprintf("access %#x %d %v @%d", addr, e.size, e.kind == 2, total))
			}
		case e.kind == 3 || e.n < 1:
			total++
			seen = append(seen, fmt.Sprintf("branch %#x %v @%d", e.pc, e.kind == 3 && e.taken, total))
		default:
			total += uint64(e.n)
			for i := 1; i <= e.n; i++ {
				seen = append(seen, fmt.Sprintf("branch %#x %v @%d", e.pc, i < e.n, total))
			}
		}
	}
	return seen
}

// TestStepIsItsFourCalls: on a hooked context a Step is its branch,
// load, store and ops calls, so sinks that read Total on every event,
// the tape and the profile see the same thing from either, and the
// sinks see each event already counted.
func TestStepIsItsFourCalls(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(9)), 2000)
	fn := Func("t/tape.step")
	run := func(events []event) (*Ctx, *totalSink, *Recorder, *Profile) {
		c, s, rec, prof := New(), &totalSink{}, &Recorder{}, NewProfile()
		s.c = c
		c.AttachBranchSink(s)
		c.AttachMemSink(s)
		c.AttachRecorder(rec)
		c.AttachProfile(prof)
		c.Enter(fn)
		report(c, events)
		return c, s, rec, prof
	}
	c, s, rec, prof := run(events)
	uc, us, urec, uprof := run(unbundle(events))
	if want := wantSeen(events); !slices.Equal(us.seen, want) {
		t.Fatalf("sinks saw %d events from the four calls, want %d, or a different sequence", len(us.seen), len(want))
	}
	if !slices.Equal(s.seen, us.seen) {
		t.Fatalf("sinks saw %d events from Step and %d from its four calls, or a different sequence", len(s.seen), len(us.seen))
	}
	if c.Mix != uc.Mix || c.StageCounts() != uc.StageCounts() {
		t.Fatalf("Step counts %v %v, its four calls %v %v", c.Mix, c.StageCounts(), uc.Mix, uc.StageCounts())
	}
	total := rec.Tape.Total()
	if i := firstDiff(rec.Tape.Window(0, total).MicroOps(), urec.Tape.Window(0, total).MicroOps()); i >= 0 || urec.Tape.Total() != total {
		t.Fatalf("tapes differ at op %d", i)
	}
	if !reflect.DeepEqual(prof.Flat(), uprof.Flat()) {
		t.Fatalf("profiles differ: %v vs %v", prof.Flat(), uprof.Flat())
	}
}

// TestTapeSplitsOversizedRuns: nothing is truncated to fit a record.
func TestTapeSplitsOversizedRuns(t *testing.T) {
	pc := Site("t/tape.big")
	events := []event{
		{kind: 0, class: OpAVX, n: 3*maxCount + 7},
		{kind: 1, pc: pc, addr: 1 << 40, n: 2*maxCount + 1, stride: -24, size: 300},
		{kind: 4, pc: pc, n: 2*maxCount + 5},
		{kind: 4, pc: pc, n: maxCount},
		{kind: 4, pc: pc, n: maxCount + 1},
		{kind: 4, pc: pc, n: 0},
	}
	rec := emit(events, &Recorder{})
	total := rec.Tape.Total()
	for _, w := range [][2]uint64{{0, total}, {maxCount - 1, 3}, {3*maxCount + 5, 2 * maxCount}, {total - maxCount - 5, maxCount + 5}} {
		checkWindow(t, events, rec, w[0], w[1])
	}
	if words := len(rec.Tape.chunks[0]); words != 4+3*3+3+1+2+1 {
		t.Errorf("tape holds %d words, want 20: 4 op records, 3 mem records of 3 words, 3+1+2 loop records, 1 branch", words)
	}
}

// TestTapeClipsLoopsAtWindowEdges: a run sink gets a loop whose tail
// is inside the window as one Loop, and a loop cut short by the
// window's end as the taken branches it is.
func TestTapeClipsLoopsAtWindowEdges(t *testing.T) {
	var tape Tape
	pc := Site("t/tape.clip")
	tape.Loop(pc, 10)                   // 0..9
	tape.Mem(pc, 0x1000, 6, 8, 4, true) // 10..15
	tape.Loop(pc, 5)                    // 16..20
	var s runSink
	tape.Window(7, 11).Play(&s, &s) // 7..17
	want := []string{
		fmt.Sprintf("loop %#x 3", pc),
		"run 0x1000 6 8 4 true",
		fmt.Sprintf("branch %#x true", pc),
		fmt.Sprintf("branch %#x true", pc),
	}
	if !slices.Equal(s.log, want) {
		t.Fatalf("run sink saw\n%q, want\n%q", s.log, want)
	}
	s.log = nil
	tape.Window(12, 2).Play(nil, &s)
	if want := []string{"run 0x1010 2 8 4 true"}; !slices.Equal(s.log, want) {
		t.Fatalf("run sink saw %q, want %q", s.log, want)
	}
	tape.Window(0, 100).Play(nil, nil) // nil sinks are skipped, not called
}

// TestTapeKeepsTheMostRecentOfALongRun: shown more than tapeChunks
// chunks of records, a tape holds the latest tapeChunks of them in the
// storage it already had, still counts everything, and refuses a window
// that has slid off it.
func TestTapeKeepsTheMostRecentOfALongRun(t *testing.T) {
	pcs := Sites("t/tape.long", 3)
	var tape Tape
	n := (tapeChunks + 3) * chunkWords
	for i := 0; i < n; i++ {
		tape.Branch(pcs[i%3], i%5 == 0)
	}
	if tape.Total() != uint64(n) || tape.Bytes() != tapeChunks*chunkWords*8 {
		t.Fatalf("tape shown %d branches: total %d, %d bytes, want %d bytes", n, tape.Total(), tape.Bytes(), tapeChunks*chunkWords*8)
	}
	if oldest := uint64(3 * chunkWords); tape.heads[0].first != oldest || tape.Holds(oldest-1, 5) || !tape.Holds(oldest, uint64(n)) {
		t.Fatalf("oldest kept instruction %d, want %d, and windows held from there on only", tape.heads[0].first, oldest)
	}
	checkBranchCounts(t, "a tape past its ring", &tape)
	if got, want := len(tape.Window(uint64(3*chunkWords), uint64(n)).Branches()), n-3*chunkWords; got != want {
		t.Fatalf("the whole ring holds %d branches, want %d", got, want)
	}
	for i, op := range tape.Window(uint64(n)-1000, 1000).MicroOps() {
		i += n - 1000
		if want := (MicroOp{PC: pcs[i%3], Class: OpBranch, Taken: i%5 == 0}); op != want {
			t.Fatalf("op %d = %+v, want %+v", i, op, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("the tape served a window it no longer holds")
		}
	}()
	tape.Window(0, 10)
}

// FuzzTapeVsRefRecorder decodes its input into a run stream and a
// window and holds the tape to the reference recorder on it. Four bytes
// make an event: kind, count, an oversize selector and one byte the
// other arguments derive from. A repeat (kind 6) copies the tape
// records of the 1–8 events before it, and the tape must equal one shown
// those events again. Seeds are under testdata/fuzz.
func FuzzTapeVsRefRecorder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, start, limit uint64) {
		pcs := Sites("t/tape.fuzz", 4)
		var events []event
		var lens []int // lens[i]: the events events[i] reports, repeats expanded
		for ; len(data) >= 4 && len(events) < 64; data = data[4:] {
			if data[0]%7 == 6 {
				e := event{kind: 6, n: int(data[1]%8) + 1}
				n := 0
				for _, l := range lens[max(len(lens)-e.n, 0):] {
					n += l
				}
				if n == 0 || len(flatten(events))+n > 1024 {
					continue // nothing to repeat, or a stream grown too long to check quickly
				}
				events, lens = append(events, e), append(lens, n)
				continue
			}
			e := event{
				kind:   int(data[0] % 7),
				class:  OpAVX + OpClass(data[3]%3), // Op's contract: not a branch, load or store
				pc:     pcs[data[3]%4],
				addr:   0x20000000 + uint64(data[3])<<8,
				n:      int(data[1]),
				stride: int(int8(data[3])) * 3,
				size:   int(data[3]) * 2,
				taken:  data[3]&1 != 0,
			}
			if data[2] >= 0xf0 {
				e.n += int(data[2]&15) << 14 // up to four records' worth
			}
			if e.kind >= 4 {
				e.n -= 1 // Loop(-1) is the guard test; Step(..., -1) reports no ops
			}
			events, lens = append(events, e), append(lens, 1)
		}
		rec := emit(events, &Recorder{})
		if again := emit(flatten(events), &Recorder{}); !reflect.DeepEqual(rec.Tape, again.Tape) {
			t.Fatalf("the tape that copied its repeats differs from one shown them again")
		}
		checkWindow(t, events, rec, start, limit)
	})
}

// TestTapeReplayAcrossARingDrop: a span copied onto a tape whose ring
// is full, from half-way through one chunk to near the end of the next,
// overflows the tail while it still has the span's first chunk to read:
// the copy reuses the ring's oldest chunk for a new one, and every
// chunk moves down one place in the ring. The copy finds the span's
// second chunk by its place in the run, not in the ring, and leaves the
// tape exactly as the events shown again would.
func TestTapeReplayAcrossARingDrop(t *testing.T) {
	pcs := Sites("t/tape.drop", 3)
	fill := func(c *Ctx) {
		for i := 0; i < (tapeChunks-2)*chunkWords+chunkWords/2; i++ {
			c.Branch(pcs[i%3], i%7 == 0)
		}
	}
	var span []event
	// Every other op record is of class OpBranch: off Op's contract, but
	// its readers decode it as branches, so the copy must count it so.
	for i := 0; i < 14*chunkWords/50; i++ { // five words a group: 1.4 chunks
		span = append(span,
			event{kind: 1, pc: pcs[0], addr: 0x1000 + uint64(i)*64, n: 1 + i%5, stride: 8, size: 4},
			event{kind: 4, pc: pcs[1], n: i % 9},
			event{kind: 0, class: [2]OpClass{OpAVX, OpBranch}[i%2], n: 3})
	}
	copied, shown := New(), New()
	rec, again := &Recorder{}, &Recorder{}
	copied.AttachRecorder(rec)
	shown.AttachRecorder(again)
	fill(copied)
	mark, ok := copied.Mark()
	if !ok {
		t.Fatal("a context whose one hook is a recorder cannot repeat a span")
	}
	report(copied, span)
	s := copied.Since(mark)
	if len(rec.Tape.chunks) != tapeChunks || s.to.chunk-s.from.chunk != 1 || s.to.word < chunkWords*4/5 {
		t.Fatalf("%d chunks, the span from chunk %d to word %d of chunk %d; want a full ring and the span near the end of its second chunk",
			len(rec.Tape.chunks), s.from.chunk, s.to.word, s.to.chunk)
	}
	before := rec.Tape.dropped
	for range 3 {
		if !copied.Repeat(&s) {
			t.Fatal("the span was refused while the ring still holds it")
		}
	}
	if rec.Tape.dropped-before < 3 {
		t.Fatalf("the copies dropped %d chunks, want the ring to move under them", rec.Tape.dropped-before)
	}
	// A short span, copied after the tail is padded to each room short
	// of the span's 13 words: each copy must open a chunk exactly where
	// its records reported one by one would.
	short := span[:7] // 3+1+1 words twice, and 3
	mark, _ = copied.Mark()
	report(copied, short)
	s = copied.Since(mark)
	after := slices.Clone(short)
	pad := event{kind: 3, pc: pcs[2], taken: true}
	for room := range 14 {
		for chunkWords-len(rec.Tape.chunks[len(rec.Tape.chunks)-1]) != room {
			report(copied, []event{pad})
			after = append(after, pad)
		}
		if !copied.Repeat(&s) {
			t.Fatal("a short span was refused")
		}
		after = append(after, short...)
	}
	fill(shown)
	report(shown, slices.Concat(span, span, span, span, after))
	if !reflect.DeepEqual(rec.Tape, again.Tape) {
		t.Fatal("the tape that copied the span differs from one shown its events again")
	}
	if copied.Mix != shown.Mix || copied.StageCounts() != shown.StageCounts() {
		t.Fatalf("copying counts %v %v, the events shown again %v %v", copied.Mix, copied.StageCounts(), shown.Mix, shown.StageCounts())
	}
	checkBranchCounts(t, "a tape that copied across a ring drop", &rec.Tape)
	// A span whose first chunk the ring has let go of is refused, and
	// the tape is left as it was.
	old := Span{from: tapePos{chunk: rec.Tape.dropped - 1}, to: tapePos{chunk: rec.Tape.dropped, word: 5}}
	total := rec.Tape.Total()
	if copied.Repeat(&old) || rec.Tape.Total() != total {
		t.Fatal("a span that has left the ring was copied")
	}
}

// TestAimedTapeCutsTheUnaimedWindow: on seeded run streams with
// repeated spans, short and long, a tape aimed at the window cuts the
// window an unaimed tape of the same stream cuts, run for run, for
// windows at 0, a quarter, half and nine tenths of the run, shorter and
// longer than it. It keeps no more than the stretch that window could
// still have started in, max(limit, (1−frac)·total) instructions,
// plus its first and its last chunk.
func TestAimedTapeCutsTheUnaimedWindow(t *testing.T) {
	dropped := false
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A repeat reports again the last n events' reports (lens), some
		// reaching thousands of events back; the stream is held to 60,000
		// reports.
		var events []event
		var lens []int
		flat := 0
		for _, e := range randomEvents(rng, 20_000) {
			events, lens = append(events, e), append(lens, 1)
			flat++
			n := 0
			switch rng.Intn(400) {
			case 0:
				n = 500 + rng.Intn(2500)
			case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20:
				n = 1 + rng.Intn(8)
			default:
				continue
			}
			r := 0
			for _, l := range lens[max(len(lens)-n, 0):] {
				r += l
			}
			if flat+r <= 60_000 {
				events, lens = append(events, event{kind: 6, n: n}), append(lens, r)
				flat += r
			}
		}
		whole := emit(events, &Recorder{})
		total := whole.Tape.Total()
		if whole.Tape.dropped != 0 || len(whole.Tape.chunks) < 4 {
			t.Fatalf("seed %d: the unaimed tape keeps %d chunks and dropped %d, want the whole run in several", seed, len(whole.Tape.chunks), whole.Tape.dropped)
		}
		for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
			for _, limit := range []uint64{1, 10_000, total / 3, total + 1} {
				rec := &Recorder{}
				rec.Tape.Aim(frac, limit)
				emit(events, rec)
				tape := &rec.Tape
				where := fmt.Sprintf("seed %d, frac %v, limit %d of %d", seed, frac, limit, total)
				start := Place(total, frac, limit)
				if tape.Total() != total || !tape.Holds(start, limit) {
					t.Fatalf("%s: total %d, window at %d held %v", where, tape.Total(), start, tape.Holds(start, limit))
				}
				checkBranchCounts(t, where, tape)
				got, want := tape.Window(start, limit), whole.Tape.Window(start, limit)
				var r, w Run
				for gc, wc := got.Cursor(), want.Cursor(); ; {
					more := gc.Next(&r)
					if more != wc.Next(&w) || r != w {
						t.Fatalf("%s: the aimed tape's window reads %+v (%v), the unaimed tape's %+v", where, r, more, w)
					}
					if !more {
						break
					}
				}
				if !slices.Equal(got.Branches(), want.Branches()) {
					t.Fatalf("%s: the windows list different branches", where)
				}
				k := len(tape.heads) - 1
				edges := tape.chunkEnd(0) - tape.heads[0].first + tape.end - tape.heads[k].first
				if kept := tape.end - tape.heads[0].first; kept > total-start+edges {
					t.Fatalf("%s: the tape keeps %d instructions, want at most %d after the window's floor and %d in its edge chunks",
						where, kept, total-start, edges)
				}
				dropped = dropped || tape.dropped > 0
			}
		}
	}
	if !dropped {
		t.Fatal("no aimed tape let go of a chunk")
	}
}

// TestTapeReplayAcrossAFloorDrop: a span copied onto an aimed tape,
// from half-way through one chunk to near the end of the next, opens
// chunks whose opening lets go of older chunks the window can no longer
// reach. The copy finds the span's chunks by their place in the run and
// leaves the tape exactly as the events shown again would. Copied
// again and again, the span's first chunk nears the floor; the copy
// that would let go of it while reading it is refused, the tape is
// left as it was, and reporting the events again stays exact.
func TestTapeReplayAcrossAFloorDrop(t *testing.T) {
	pcs := Sites("t/tape.floor", 3)
	fill := func(c *Ctx) {
		for i := 0; i < 6*chunkWords+chunkWords/2; i++ {
			c.Branch(pcs[i%3], i%7 == 0)
		}
	}
	var span []event
	for i := 0; i < 14*chunkWords/50; i++ { // five words a group: 1.4 chunks
		span = append(span,
			event{kind: 1, pc: pcs[0], addr: 0x1000 + uint64(i)*64, n: 1 + i%5, stride: 8, size: 4},
			event{kind: 4, pc: pcs[1], n: i % 9},
			event{kind: 0, class: [2]OpClass{OpAVX, OpBranch}[i%2], n: 3})
	}
	copied, shown := New(), New()
	rec, again := &Recorder{}, &Recorder{}
	rec.Tape.Aim(0.25, 1)
	again.Tape.Aim(0.25, 1)
	copied.AttachRecorder(rec)
	shown.AttachRecorder(again)
	fill(copied)
	fill(shown)
	mark, ok := copied.Mark()
	if !ok {
		t.Fatal("a context whose one hook is an aimed recorder cannot repeat a span")
	}
	report(copied, span)
	report(shown, span)
	s := copied.Since(mark)
	if rec.Tape.dropped == 0 || s.to.chunk-s.from.chunk != 1 || s.to.word < chunkWords*4/5 {
		t.Fatalf("%d chunks dropped, the span from chunk %d to word %d of chunk %d; want a floor past the first chunks and the span near the end of its second chunk",
			rec.Tape.dropped, s.from.chunk, s.to.word, s.to.chunk)
	}
	same := func(what string) {
		t.Helper()
		if !reflect.DeepEqual(rec.Tape, again.Tape) {
			t.Fatalf("%s: the tape that copied the span differs from one shown its events again", what)
		}
		if copied.Mix != shown.Mix || copied.StageCounts() != shown.StageCounts() {
			t.Fatalf("%s: copying counts %v %v, the events shown again %v %v", what, copied.Mix, copied.StageCounts(), shown.Mix, shown.StageCounts())
		}
		checkBranchCounts(t, what, &rec.Tape)
	}
	before := rec.Tape.dropped
	for range 3 {
		if !copied.Repeat(&s) {
			t.Fatal("the span was refused while far above the floor")
		}
		report(shown, span)
	}
	if rec.Tape.dropped-before < 2 {
		t.Fatalf("the copies dropped %d chunks, want the floor to move under them", rec.Tape.dropped-before)
	}
	same("three copies")
	for n := 0; ; n++ {
		if n == 20 {
			t.Fatal("twenty more copies were never refused: the floor never neared the span")
		}
		total := rec.Tape.Total()
		if copied.Repeat(&s) {
			report(shown, span)
			continue
		}
		if s.from.chunk < rec.Tape.dropped || rec.Tape.Total() != total {
			t.Fatalf("refused after %d more copies with the span's first chunk %d of the tape's first %d, total %d → %d: want it refused while on the tape, and the tape untouched",
				n, s.from.chunk, rec.Tape.dropped, total, rec.Tape.Total())
		}
		break
	}
	same("copies up to the refusal")
	report(copied, span)
	report(shown, span)
	same("the refused span reported again")
}

// TestAimedTapeDropsAtTheFloorExactly: with one-instruction records a
// chunk holds chunkWords instructions, and a window of limit just over
// a chunk at 0.99 of the run puts the floor, when the third chunk
// opens, at the end of the first, or one instruction short of it. At
// the end the first chunk is let go of; one short, it is kept, and the
// window of the run so far starts inside it.
func TestAimedTapeDropsAtTheFloorExactly(t *testing.T) {
	pc := Site("t/tape.exact")
	for _, tc := range []struct {
		limit   uint64
		dropped int
	}{{chunkWords + 1, 1}, {chunkWords + 2, 0}} {
		var tape Tape
		tape.Aim(0.99, tc.limit)
		for range 2*chunkWords + 1 {
			tape.Branch(pc, true)
		}
		start := Place(tape.Total(), 0.99, tc.limit)
		if tape.dropped != tc.dropped || !tape.Holds(start, tc.limit) {
			t.Fatalf("limit %d: %d chunks dropped, window at %d held %v; want %d dropped and the window held",
				tc.limit, tape.dropped, start, tape.Holds(start, tc.limit), tc.dropped)
		}
	}
}

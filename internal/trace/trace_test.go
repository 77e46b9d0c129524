package trace

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNilCtxIsSafe(t *testing.T) {
	var c *Ctx
	c.Op(OpAVX, 10)
	c.Loads(0, 0, 4, 1, 4)
	c.Stores(0, 0, 4, 1, 4)
	c.Branch(0, true)
	c.Loop(0, 5)
	c.Step(0, true, 0, 8, 2, 6)
	c.Enter(0)
	c.Leave()
	c.Merge(New())
	if c.Total() != 0 {
		t.Error("nil ctx reported nonzero total")
	}
}

func TestCtxCountsMix(t *testing.T) {
	c := New()
	c.Op(OpAVX, 10)
	c.Op(OpSSE, 2)
	c.Op(OpOther, 5)
	c.Loads(Site("t/l"), 0x1000, 4, 16, 16)
	c.Stores(Site("t/s"), 0x2000, 3, 16, 16)
	c.Branch(Site("t/b"), true)
	c.Loop(Site("t/loop"), 4)
	if got := c.Mix[OpAVX]; got != 10 {
		t.Errorf("AVX = %d, want 10", got)
	}
	if got := c.Mix[OpLoad]; got != 4 {
		t.Errorf("Load = %d, want 4", got)
	}
	if got := c.Mix[OpStore]; got != 3 {
		t.Errorf("Store = %d, want 3", got)
	}
	if got := c.Mix[OpBranch]; got != 5 {
		t.Errorf("Branch = %d, want 5 (1 + loop of 4)", got)
	}
	if c.Total() != c.Mix.Total() {
		t.Errorf("Total %d != Mix.Total %d", c.Total(), c.Mix.Total())
	}
	if c.Mix.Total() != 10+2+5+4+3+5 {
		t.Errorf("Mix.Total = %d, want 29", c.Mix.Total())
	}
	if p := c.Mix.Percent(OpAVX); p < 34 || p > 35 {
		t.Errorf("Percent(AVX) = %v, want ~34.5", p)
	}
}

func TestMixPercentEmpty(t *testing.T) {
	var m Mix
	if m.Percent(OpLoad) != 0 {
		t.Error("Percent on empty mix should be 0")
	}
}

func TestSiteStableAndDistinct(t *testing.T) {
	a := Site("pkg.fn/loop1")
	b := Site("pkg.fn/loop2")
	if a == b {
		t.Error("distinct site names mapped to same PC")
	}
	if again := Site("pkg.fn/loop1"); again != a {
		t.Error("same site name mapped to different PCs")
	}
	if a%16 != 0 {
		t.Errorf("PC %#x not 16-byte aligned", uint64(a))
	}
}

func TestFuncRegistry(t *testing.T) {
	f1 := Func("encoder.EncodeFrame")
	f2 := Func("motion.Search")
	if f1 == f2 {
		t.Error("distinct functions got same id")
	}
	if Func("encoder.EncodeFrame") != f1 {
		t.Error("re-registration changed id")
	}
	if FuncName(f1) != "encoder.EncodeFrame" {
		t.Errorf("FuncName = %q", FuncName(f1))
	}
	if FuncName(FuncID(1<<30)) != "" {
		t.Error("unknown FuncID should yield empty name")
	}
}

type branchCapture struct{ events []bool }

func (b *branchCapture) Branch(pc PC, taken bool) { b.events = append(b.events, taken) }

func TestLoopBranchPattern(t *testing.T) {
	c := New()
	cap := &branchCapture{}
	c.AttachBranchSink(cap)
	c.Loop(Site("t/loop2"), 5)
	want := []bool{true, true, true, true, false}
	if len(cap.events) != len(want) {
		t.Fatalf("loop emitted %d events, want %d", len(cap.events), len(want))
	}
	for i := range want {
		if cap.events[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, cap.events[i], want[i])
		}
	}
	cap.events = nil
	c.Loop(Site("t/loop2"), 0)
	if len(cap.events) != 1 || cap.events[0] != false {
		t.Errorf("zero-iteration loop events = %v, want [false]", cap.events)
	}
}

type memCapture struct {
	addrs  []uint64
	stores int
}

func (m *memCapture) Access(addr uint64, size int, store bool) {
	m.addrs = append(m.addrs, addr)
	if store {
		m.stores++
	}
}

func TestMemSinkStriding(t *testing.T) {
	c := New()
	cap := &memCapture{}
	c.AttachMemSink(cap)
	c.Loads(Site("t/mem"), 0x1000, 3, 64, 32)
	c.Stores(Site("t/mem2"), 0x8000, 2, 16, 16)
	wantAddrs := []uint64{0x1000, 0x1040, 0x1080, 0x8000, 0x8010}
	if len(cap.addrs) != len(wantAddrs) {
		t.Fatalf("got %d accesses, want %d", len(cap.addrs), len(wantAddrs))
	}
	for i, a := range wantAddrs {
		if cap.addrs[i] != a {
			t.Errorf("access %d addr %#x, want %#x", i, cap.addrs[i], a)
		}
	}
	if cap.stores != 2 {
		t.Errorf("stores = %d, want 2", cap.stores)
	}
}

// orderSink logs which sink saw which address into a shared journal.
type orderSink struct {
	id      int
	journal *[][2]uint64
}

func (o orderSink) Access(addr uint64, _ int, _ bool) {
	*o.journal = append(*o.journal, [2]uint64{uint64(o.id), addr})
}

func TestMemSinksSeeEachAccessInAttachOrder(t *testing.T) {
	// With several sinks every run goes to all of them, in attach
	// order, before the next run is issued; within a run each sink
	// sees its accesses in address order.
	c := New()
	var journal [][2]uint64
	c.AttachMemSink(orderSink{0, &journal})
	c.AttachMemSink(orderSink{1, &journal})
	c.Loads(Site("t/order"), 0x100, 2, 8, 8)
	c.Stores(Site("t/order2"), 0x200, 1, 8, 8)
	want := [][2]uint64{{0, 0x100}, {0, 0x108}, {1, 0x100}, {1, 0x108}, {0, 0x200}, {1, 0x200}}
	if !reflect.DeepEqual(journal, want) {
		t.Fatalf("journal %v, want %v", journal, want)
	}
}

// eventSink implements only the per-event interfaces, like the
// benchmark's capture; runSink also implements the run protocol. Both
// write what they are handed into a log.
type eventSink struct{ log []string }

func (e *eventSink) Branch(pc PC, taken bool) {
	e.log = append(e.log, fmt.Sprintf("branch %#x %v", uint64(pc), taken))
}

func (e *eventSink) Access(addr uint64, size int, store bool) {
	e.log = append(e.log, fmt.Sprintf("access %#x %d %v", addr, size, store))
}

type runSink struct{ eventSink }

func (r *runSink) Loop(pc PC, iters int) {
	r.log = append(r.log, fmt.Sprintf("loop %#x %d", uint64(pc), iters))
}

func (r *runSink) Run(addr uint64, count, stride, size int, store bool) {
	r.log = append(r.log, fmt.Sprintf("run %#x %d %d %d %v", addr, count, stride, size, store))
}

// emitRuns drives every run-producing entry point of a Ctx once.
func emitRuns(c *Ctx) {
	c.Loop(0x40, 5)
	c.Loop(0x50, 0)
	c.Loop(0x60, 1)
	c.Branch(0x70, true)
	c.Loads(0, 0x1000, 3, 64, 32)
	c.Stores(0, 0x8010, 2, -16, 16)
	c.Loads(0, 0x9000, 2, 0, 4)
	c.Loads(0, 0xA000, 0, 8, 8)
}

// TestPerEventSinkSeesUnrolledRuns pins the attach-time adapter: a sink
// with only Branch/Access sees, event for event, the sequence it saw
// when Ctx unrolled runs itself.
func TestPerEventSinkSeesUnrolledRuns(t *testing.T) {
	c := New()
	s := &eventSink{}
	c.AttachBranchSink(s)
	c.AttachMemSink(s)
	emitRuns(c)
	want := []string{
		"branch 0x40 true", "branch 0x40 true", "branch 0x40 true", "branch 0x40 true", "branch 0x40 false",
		"branch 0x50 false",
		"branch 0x60 false",
		"branch 0x70 true",
		"access 0x1000 32 false", "access 0x1040 32 false", "access 0x1080 32 false",
		"access 0x8010 16 true", "access 0x8000 16 true",
		"access 0x9000 4 false", "access 0x9000 4 false",
	}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("per-event sink saw\n%q, want\n%q", s.log, want)
	}
}

// TestRunSinkSeesOneCallPerRun: a run-capable sink is handed each run
// whole. A zero-iteration loop is its guard test, one plain branch.
func TestRunSinkSeesOneCallPerRun(t *testing.T) {
	c := New()
	s := &runSink{}
	c.AttachBranchSink(s)
	c.AttachMemSink(s)
	emitRuns(c)
	want := []string{
		"loop 0x40 5",
		"branch 0x50 false",
		"loop 0x60 1",
		"branch 0x70 true",
		"run 0x1000 3 64 32 false",
		"run 0x8010 2 -16 16 true",
		"run 0x9000 2 0 4 false",
	}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("run sink saw\n%q, want\n%q", s.log, want)
	}
}

func TestRecorderWindow(t *testing.T) {
	c := New()
	rec := &Recorder{}
	c.AttachRecorder(rec)
	c.Op(OpOther, 3)                      // idx 0..2, all before window
	c.Loop(Site("t/rw"), 4)               // idx 3..6: 5 and 6 in window
	c.Loads(Site("t/rl"), 0x100, 8, 4, 4) // idx 7..14 in window
	c.Op(OpAVX, 20)                       // idx 15..34, all after window
	if rec.Tape.Total() != c.Total() {
		t.Fatalf("tape holds %d instructions, ctx counted %d", rec.Tape.Total(), c.Total())
	}
	rec.Cut(5, 10)
	ops := rec.Ops.MicroOps()
	if len(ops) != 10 || rec.Ops.Len() != 10 {
		t.Fatalf("recorded %d ops in a window of %d, want 10", len(ops), rec.Ops.Len())
	}
	// First two recorded are loop branches at idx 5 (taken) and 6 (not taken).
	if !ops[0].IsBranch() || !ops[0].Taken {
		t.Errorf("op 0 = %+v, want taken branch", ops[0])
	}
	if !ops[1].IsBranch() || ops[1].Taken {
		t.Errorf("op 1 = %+v, want not-taken branch", ops[1])
	}
	for i := 2; i < 10; i++ {
		if ops[i].Class != OpLoad {
			t.Errorf("op %d class = %v, want Load", i, ops[i].Class)
		}
	}
	if ops[2].Addr != 0x100 || ops[3].Addr != 0x104 {
		t.Errorf("load addrs %#x,%#x want 0x100,0x104", ops[2].Addr, ops[3].Addr)
	}
	if n := len(rec.Ops.Branches()); n != 2 {
		t.Errorf("Branches() = %d entries, want 2", n)
	}
}

func TestProfileAttribution(t *testing.T) {
	c := New()
	p := NewProfile()
	c.AttachProfile(p)
	fEnc := Func("test.Encode")
	fSad := Func("test.SAD")
	c.Enter(fEnc)
	c.Op(OpOther, 10)
	c.Enter(fSad)
	c.Op(OpAVX, 90)
	c.Leave()
	c.Op(OpOther, 5)
	c.Leave()
	flat := p.Flat()
	if len(flat) != 2 {
		t.Fatalf("profile has %d entries, want 2", len(flat))
	}
	if flat[0].Name != "test.SAD" || flat[0].Insts != 90 {
		t.Errorf("hottest = %+v, want test.SAD with 90", flat[0])
	}
	if flat[1].Insts != 15 {
		t.Errorf("test.Encode insts = %d, want 15", flat[1].Insts)
	}
	if flat[0].Percent < 85 || flat[0].Percent > 86 {
		t.Errorf("percent = %v, want ~85.7", flat[0].Percent)
	}
	if r := p.Render(); len(r) == 0 {
		t.Error("Render returned empty string")
	}
}

// TestProfileBooksRootWorkApart: instructions reported outside any
// Enter land on the "(unprofiled)" row, never on a registered function,
// and the rows add up to everything the context counted.
func TestProfileBooksRootWorkApart(t *testing.T) {
	fn := Func("test.Root")
	c := New()
	p := NewProfile()
	c.AttachProfile(p)
	c.Op(OpOther, 7)
	c.Enter(fn)
	c.Op(OpAVX, 3)
	c.Leave()
	c.Op(OpOther, 2)
	want := map[string]uint64{"(unprofiled)": 9, "test.Root": 3}
	var sum uint64
	for _, e := range p.Flat() {
		if e.Insts != want[e.Name] {
			t.Errorf("row %s = %d instructions, want %d", e.Name, e.Insts, want[e.Name])
		}
		sum += e.Insts
	}
	if sum != c.Total() {
		t.Errorf("rows sum to %d, context counted %d", sum, c.Total())
	}
}

func TestCtxMerge(t *testing.T) {
	a, b := New(), New()
	a.Op(OpAVX, 10)
	b.Op(OpAVX, 5)
	b.Branch(Site("t/m"), true)
	a.Merge(b)
	if a.Mix[OpAVX] != 15 || a.Mix[OpBranch] != 1 {
		t.Errorf("merged mix = %+v", a.Mix)
	}
	if a.Total() != 16 {
		t.Errorf("merged total = %d, want 16", a.Total())
	}
}

func TestAddressSpace(t *testing.T) {
	as := NewAddressSpace()
	r1, err := as.Alloc("plane/Y", 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := as.Alloc("plane/U", 500)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base%64 != 0 || r2.Base%64 != 0 {
		t.Error("regions not cache-line aligned")
	}
	if r2.Base < r1.End() {
		t.Errorf("regions overlap: %+v then %+v", r1, r2)
	}
	// Same name, same size: idempotent.
	r1b, err := as.Alloc("plane/Y", 1000)
	if err != nil || r1b != r1 {
		t.Errorf("re-alloc returned %+v, %v; want %+v", r1b, err, r1)
	}
	// Same name, different size: error.
	if _, err := as.Alloc("plane/Y", 2000); err == nil {
		t.Error("conflicting re-alloc accepted")
	}
	if _, err := as.Alloc("bad", 0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if got, err := as.Alloc("plane/U", 500); err != nil || got != r2 {
		t.Errorf("re-alloc of plane/U returned %+v, %v; want %+v", got, err, r2)
	}
}

func TestAddressSpaceNeverOverlaps(t *testing.T) {
	as := NewAddressSpace()
	var regions []Region
	f := func(sz uint16) bool {
		size := int(sz%4096) + 1
		r, err := as.Alloc(string(rune('a'+len(regions)%26))+string(rune('0'+len(regions)/26)), size)
		if err != nil {
			return false
		}
		for _, prev := range regions {
			if r.Base < prev.End() && prev.Base < r.End() {
				return false
			}
		}
		regions = append(regions, r)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOpClassString(t *testing.T) {
	if OpBranch.String() != "Branch" || OpAVX.String() != "AVX" {
		t.Error("OpClass names wrong")
	}
	if OpClass(200).String() != "Invalid" {
		t.Error("out-of-range class should be Invalid")
	}
}

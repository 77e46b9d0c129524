package pipeline

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/machine"
)

func mkOps(n int, class trace.OpClass) []trace.MicroOp {
	ops := make([]trace.MicroOp, n)
	for i := range ops {
		ops[i] = trace.MicroOp{PC: trace.PC(0x400000 + (i%64)*16), Class: class}
		if class == trace.OpLoad || class == trace.OpStore {
			ops[i].Addr = uint64(0x10000000 + i*8)
			ops[i].Size = 8
		}
	}
	return ops
}

func TestConfigValidation(t *testing.T) {
	bad := Broadwell()
	bad.Width = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero width")
	}
	bad = Broadwell()
	bad.LoadPorts = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero load ports")
	}
	bad = Broadwell()
	bad.Predictor = "nonsense"
	if _, err := New(bad); err == nil {
		t.Error("accepted unknown predictor")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(trace.Window{}); err == nil {
		t.Error("accepted empty trace")
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.WindowOf(mkOps(20000, trace.OpOther)))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC > 4.0 {
		t.Errorf("IPC %v exceeds machine width", res.IPC)
	}
	if res.IPC < 1.0 {
		t.Errorf("IPC %v implausibly low for independent scalar ops", res.IPC)
	}
	if res.Ops != 20000 || res.Retired != 20000 {
		t.Errorf("retired %d of %d ops", res.Retired, res.Ops)
	}
}

func TestVectorThroughputLimitedByUnits(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.WindowOf(mkOps(20000, trace.OpAVX)))
	if err != nil {
		t.Fatal(err)
	}
	// Two vector units → IPC cannot exceed 2 on pure AVX code.
	if res.IPC > 2.01 {
		t.Errorf("pure-AVX IPC %v exceeds 2 vector units", res.IPC)
	}
}

func TestStreamingLoadsAreMemoryBound(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	// Strided loads across 8MB: constant L1/L2 misses.
	ops := make([]trace.MicroOp, 30000)
	for i := range ops {
		ops[i] = trace.MicroOp{PC: 0x400100, Class: trace.OpLoad,
			Addr: uint64(0x20000000 + i*256), Size: 8}
	}
	res, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	if res.L1DMPKI < 100 {
		t.Errorf("streaming loads L1D MPKI = %v, want heavy misses", res.L1DMPKI)
	}
	if res.BackendSlots <= res.FrontendSlots {
		t.Errorf("streaming loads not backend-dominated: backend=%d frontend=%d",
			res.BackendSlots, res.FrontendSlots)
	}
	if res.IPC > 1.0 {
		t.Errorf("streaming-miss IPC %v implausibly high", res.IPC)
	}
}

func TestMispredictsCreateBadSpecSlots(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	// Branches with effectively random direction (hash of index) are
	// unpredictable; bad-speculation slots must appear.
	ops := make([]trace.MicroOp, 20000)
	st := uint64(0x1234)
	for i := range ops {
		// splitmix64: a nonlinear sequence no table predictor can learn.
		st += 0x9E3779B97F4A7C15
		z := st
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		ops[i] = trace.MicroOp{PC: 0x400200, Class: trace.OpBranch, Taken: (z^(z>>31))&1 == 1}
	}
	res, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts < res.Branches/4 {
		t.Errorf("random branches mispredicted only %d of %d", res.Mispredicts, res.Branches)
	}
	if res.BadSpecSlots == 0 {
		t.Error("no bad-speculation slots despite mispredicts")
	}
	predictable, err := s.Run(trace.WindowOf(mkOps(20000, trace.OpBranch))) // all not-taken
	if err != nil {
		t.Fatal(err)
	}
	if predictable.BadSpecSlots >= res.BadSpecSlots {
		t.Error("predictable branches produced as many bad-spec slots as random ones")
	}
}

func TestSlotAccountingConsistent(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	// A mixed stream resembling encoder work.
	var ops []trace.MicroOp
	for i := 0; i < 5000; i++ {
		ops = append(ops,
			trace.MicroOp{PC: 0x400300, Class: trace.OpLoad, Addr: uint64(0x30000000 + i*64), Size: 8},
			trace.MicroOp{PC: 0x400310, Class: trace.OpAVX},
			trace.MicroOp{PC: 0x400320, Class: trace.OpAVX},
			trace.MicroOp{PC: 0x400330, Class: trace.OpOther},
			trace.MicroOp{PC: 0x400340, Class: trace.OpStore, Addr: uint64(0x40000000 + i*8), Size: 8},
			trace.MicroOp{PC: 0x400350, Class: trace.OpBranch, Taken: i%5 != 0},
		)
	}
	res, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RetiringSlots + res.BadSpecSlots + res.FrontendSlots + res.BackendSlots; got != res.TotalSlots {
		t.Errorf("slot classes sum to %d, total is %d", got, res.TotalSlots)
	}
	if res.TotalSlots != res.Cycles*4 {
		t.Errorf("total slots %d != cycles %d × width", res.TotalSlots, res.Cycles)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC %v out of range", res.IPC)
	}
}

func TestRunsAreIndependent(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	ops := mkOps(5000, trace.OpLoad)
	a, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts || a.L1DMPKI != b.L1DMPKI {
		t.Errorf("repeat run differs: %+v vs %+v", a, b)
	}
}

// stridedWindow is line-strided loads, one ALU op after each, over two
// working sets: 16 KB walked eight times (inside the Xeon's 32 KB L1D),
// then 512 KB walked four times (past its 256 KB L2, inside 1 MB).
func stridedWindow() []trace.MicroOp {
	var ops []trace.MicroOp
	walk := func(base uint64, bytes, passes int) {
		for i := 0; i < passes*bytes/64; i++ {
			ops = append(ops,
				trace.MicroOp{PC: 0x400700, Class: trace.OpLoad, Addr: base + uint64(i*64%bytes), Size: 8},
				trace.MicroOp{PC: 0x400710, Class: trace.OpOther})
		}
	}
	walk(0x50000000, 16<<10, 8)
	walk(0x60000000, 512<<10, 4)
	return ops
}

func runOn(t *testing.T, m machine.Machine, ops []trace.MicroOp) *Result {
	t.Helper()
	s, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.WindowOf(ops))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimSimulatesItsMachinesCaches: a Sim built for a machine replays
// on that machine's hierarchy. An L1D shrunk to 4 KB cannot hold the
// 16 KB walk the Xeon's holds, so it must miss more.
func TestSimSimulatesItsMachinesCaches(t *testing.T) {
	small := Broadwell()
	small.L1D.SizeBytes = 4 << 10
	w := stridedWindow()
	if got, xeon := runOn(t, small, w).L1DMPKI, runOn(t, Broadwell(), w).L1DMPKI; got <= xeon {
		t.Errorf("L1D MPKI with a 4 KB L1D = %v, not above the Xeon's %v: the machine's caches are ignored", got, xeon)
	}
}

// TestSecondMachine replays on a machine that is not the paper's
// (graviton, window_test.go): its L2 has the Xeon's sets and more ways
// and sees the Xeon's L1 miss stream, so by LRU stack inclusion it
// cannot miss more than the Xeon's L2 does.
func TestSecondMachine(t *testing.T) {
	narrow := graviton()
	w := stridedWindow()
	got, xeon := runOn(t, narrow, w), runOn(t, Broadwell(), w)
	if got.IPC > 2 {
		t.Errorf("IPC %v on a 2-wide core", got.IPC)
	}
	if got.L2MPKI > xeon.L2MPKI {
		t.Errorf("1 MB L2 MPKI %v above the 256 KB L2's %v at equal sets", got.L2MPKI, xeon.L2MPKI)
	}
	if sum := got.RetiringSlots + got.BadSpecSlots + got.FrontendSlots + got.BackendSlots; sum != 2*got.Cycles || got.TotalSlots != sum {
		t.Errorf("slot classes sum to %d of %d total over %d cycles × width 2", sum, got.TotalSlots, got.Cycles)
	}
}

// mixedWindow is a window that exercises every piece of state a Sim
// carries between ops: strided loads and stores, vector work, and
// taken branches at many pcs (BTB fills and evictions) with a
// seed-dependent outcome pattern.
func mixedWindow(n int, seed uint64) []trace.MicroOp {
	ops := make([]trace.MicroOp, n)
	s := seed
	for i := range ops {
		s = s*6364136223846793005 + 1442695040888963407
		pc := trace.PC(0x400000 + (s>>40%6000)*16)
		switch i % 6 {
		case 0:
			ops[i] = trace.MicroOp{PC: pc, Class: trace.OpLoad, Addr: 0x1000000*seed + uint64(i)*24, Size: 16}
		case 1:
			ops[i] = trace.MicroOp{PC: pc, Class: trace.OpStore, Addr: 0x2000000*seed + s>>20%(1<<20), Size: 8}
		case 2, 3:
			ops[i] = trace.MicroOp{PC: pc, Class: trace.OpAVX}
		case 4:
			ops[i] = trace.MicroOp{PC: pc, Class: trace.OpBranch, Taken: s>>33%4 != 0}
		default:
			ops[i] = trace.MicroOp{PC: pc, Class: trace.OpOther}
		}
	}
	return ops
}

// TestSimReuseEqualsFresh: a Run leaves nothing behind. Two runs of one
// window on one Sim return equal Results, and a Sim reused across
// different windows returns what a new Sim returns for each — BTB,
// predictor, instruction cache and the acquired data hierarchy all
// start cold every time.
func TestSimReuseEqualsFresh(t *testing.T) {
	windows := [][]trace.MicroOp{mixedWindow(30_000, 1), mixedWindow(20_000, 2), mixedWindow(30_000, 1)}
	reused, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		fresh, err := New(Broadwell())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(trace.WindowOf(w))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := reused.Run(trace.WindowOf(w))
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("window %d run %d on a reused Sim: %+v, a new Sim: %+v", i, rep, *got, *want)
			}
		}
	}
}

// TestReplaySteadyStateAllocBytes is the replay half of the allocation
// budget: once the free lists hold a front end and a hierarchy,
// building a Sim and running a short window allocates the Sim, the
// rings, the unit pools and the result, about 3 KB, and no table: not a
// cache hierarchy (7.9 MB; New used to build one per Sim), and not the
// predictor, BTB or L1I (the smallest, the 8 KB TAGE, was built per Sim
// before the front end was borrowed).
func TestReplaySteadyStateAllocBytes(t *testing.T) {
	win := trace.WindowOf(mixedWindow(5_000, 3))
	pair := func() {
		s, err := New(Broadwell())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(win); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pair()
	runtime.ReadMemStats(&m1)
	grew := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("a warm New+Run pair: %d bytes", grew)
	if grew > 6<<10 {
		t.Errorf("a warm New+Run pair allocated %d bytes, want at most 6 KB", grew)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := New(Broadwell()); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a warm New allocated %v times, want 1: the Sim", n)
	}
}

// TestSimConcurrentRuns: a Sim holds no run's state, so goroutines may
// replay on one Sim at once (run it under -race), each getting what a
// run alone gets.
func TestSimConcurrentRuns(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	wins := []trace.Window{trace.WindowOf(mixedWindow(20_000, 1)), trace.WindowOf(mixedWindow(20_000, 2))}
	want := make([]Result, len(wins))
	for i, w := range wins {
		r, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *r
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 4 {
				i := (g + k) % len(wins)
				got, err := s.RunCtx(context.Background(), wins[i])
				if err != nil {
					t.Error(err)
					return
				}
				if *got != want[i] {
					t.Errorf("goroutine %d run %d: window %d gave %+v, alone %+v", g, k, i, *got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestPerOpStepDoesNotAllocate: a replay allocates its setup (rings,
// FU pools, the result) and nothing per op, so a window eight times
// longer costs the same allocations.
func TestPerOpStepDoesNotAllocate(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(w []trace.MicroOp) float64 {
		win := trace.WindowOf(w)
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Run(win); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(mixedWindow(2_000, 3)), allocs(mixedWindow(16_000, 3)); short != long {
		t.Fatalf("a 2,000-op replay allocates %v times, a 16,000-op one %v: the per-op step allocates", short, long)
	}
}

func TestFUPoolReserve(t *testing.T) {
	p := newFUPool(2)
	if got := p.reserve(10, 5); got != 10 {
		t.Errorf("first reserve = %d, want 10", got)
	}
	if got := p.reserve(10, 5); got != 10 {
		t.Errorf("second unit reserve = %d, want 10", got)
	}
	if got := p.reserve(10, 5); got != 15 {
		t.Errorf("third reserve = %d, want 15 (both busy until 15)", got)
	}
}

func TestPrefixCyclesMonotone(t *testing.T) {
	// Simulating a prefix of a trace never takes longer than the whole
	// trace: cycle accounting must be monotone in retired work.
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.MicroOp
	for i := 0; i < 8000; i++ {
		switch i % 4 {
		case 0:
			ops = append(ops, trace.MicroOp{PC: 0x400500, Class: trace.OpLoad, Addr: uint64(0x5000000 + i*32), Size: 8})
		case 1:
			ops = append(ops, trace.MicroOp{PC: 0x400510, Class: trace.OpAVX})
		case 2:
			ops = append(ops, trace.MicroOp{PC: 0x400520, Class: trace.OpBranch, Taken: i%3 == 0})
		default:
			ops = append(ops, trace.MicroOp{PC: 0x400530, Class: trace.OpOther})
		}
	}
	prev := uint64(0)
	for _, n := range []int{1000, 2000, 4000, 8000} {
		res, err := s.Run(trace.WindowOf(ops[:n]))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= prev {
			t.Errorf("cycles(%d ops) = %d not above cycles of shorter prefix %d", n, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestBTBReducesTakenBranchBubbles(t *testing.T) {
	// A hot taken branch re-executing from the BTB costs fewer frontend
	// bubbles than a parade of cold taken branches.
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]trace.MicroOp, 10000)
	for i := range hot {
		hot[i] = trace.MicroOp{PC: 0x400600, Class: trace.OpBranch, Taken: true}
	}
	cold := make([]trace.MicroOp, 10000)
	for i := range cold {
		cold[i] = trace.MicroOp{PC: trace.PC(0x400000 + (i%8192)*64), Class: trace.OpBranch, Taken: true}
	}
	hres, err := s.Run(trace.WindowOf(hot))
	if err != nil {
		t.Fatal(err)
	}
	cres, err := s.Run(trace.WindowOf(cold))
	if err != nil {
		t.Fatal(err)
	}
	if hres.FrontendSlots >= cres.FrontendSlots {
		t.Errorf("hot-branch frontend slots (%d) not below cold-branch (%d): BTB not modeled",
			hres.FrontendSlots, cres.FrontendSlots)
	}
}

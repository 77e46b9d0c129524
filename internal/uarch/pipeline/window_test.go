package pipeline

import (
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/machine"
)

// graviton is a machine that is not the paper's: a 2-wide core with a
// 1 MB private L2, after the Graviton2 of "Where to Encode". The L2
// keeps the Xeon's 512 sets and gains ways, and the L1D (so the L1 miss
// stream) is the Xeon's.
func graviton() machine.Machine {
	m := Broadwell()
	m.Width = 2
	m.L2 = machine.Cache{SizeBytes: 1 << 20, Assoc: 32, LatencyCyc: 14}
	return m
}

// writeTape decodes data into writes on a tape, four bytes a write:
// kind, count, an oversize selector and one byte the other arguments
// derive from. Every shape a kernel can emit comes out: counts past a
// record's 65,535, negative and zero strides, size 0, pc 0, zero-trip
// loops and runs of nothing.
func writeTape(t *trace.Tape, data []byte) {
	for ; len(data) >= 4; data = data[4:] {
		n, arg := int(data[1]), data[3]
		if data[2] >= 0xf0 {
			n += int(data[2]&3) << 15
		}
		pc := trace.PC(arg%5) * 0x1040
		switch data[0] % 4 {
		case 0:
			t.Op(trace.OpAVX+trace.OpClass(arg%3), n)
		case 1:
			t.Mem(pc, 0x20000000+uint64(arg)<<6, n, int(int8(arg))*3, int(arg%4)*8, arg&1 != 0)
		case 2:
			t.Branch(pc, arg&1 != 0)
		default:
			t.Loop(pc, n-1)
		}
	}
}

// checkWindow holds a replay of the window to the per-op reference on
// its micro-ops: the result and the counters of every cache level.
func checkWindow(t *testing.T, s *Sim, win trace.Window) *Result {
	t.Helper()
	ops := win.MicroOps()
	want, wantC, wantErr := refRun(s, ops)
	got, gotC, err := runCounted(s, win)
	if (err == nil) != (wantErr == nil) || len(ops) != win.Len() {
		t.Fatalf("window of %d: Run says %v, the per-op reference on its %d ops %v", win.Len(), err, len(ops), wantErr)
	}
	if err != nil {
		return nil
	}
	if *got != *want {
		t.Fatalf("window of %d: Run\n%+v\nper-op reference\n%+v", win.Len(), *got, *want)
	}
	if gotC != wantC {
		t.Fatalf("window of %d: caches after Run %+v, after the per-op reference %+v", win.Len(), gotC, wantC)
	}
	return got
}

// followerWindow is memory runs on a tape, one record each, whose
// accesses follow one another within a line: strides 0, ±8 and ±24,
// size-16 accesses straddling a line (the first of a run, and ones
// that land on the boundary going down), and a load run ending mid-line
// followed by a store run on that line; then a sweep that evicts them
// all, so a dirty bit set wrongly shows. ALU work sits between runs.
func followerWindow() trace.Window {
	const base = 0x30000000
	var t trace.Tape
	for _, m := range []struct {
		addr                uint64
		count, stride, size int
		store               bool
	}{
		{base, 20, 0, 8, false},                 // one walk, nineteen followers
		{base + 0x1000, 40, 8, 8, false},        // a walk a line, seven followers
		{base + 0x2400, 40, -8, 8, true},        // going down, stores
		{base + 0x3000, 30, 24, 8, false},       // two or three a line
		{base + 0x4000 + 40, 30, -24, 16, true}, // offsets 40, 16, then 56: straddles
		{base + 0x5000 + 56, 6, 8, 16, false},   // straddles, then follows on the second line
		{base + 0x6000, 5, 8, 8, false},         // ends mid-line, at offset 32...
		{base + 0x6000 + 40, 3, 8, 8, true},     // ...where a store run goes on
		{base + 0x6000 + 8, 4, 0, 8, false},     // and a load run after it, stride 0
		{base + 0x100000, 1024, 64, 8, false},   // 64 KB: evicts every line, the dirty ones written back
	} {
		t.Mem(0x400800, m.addr, m.count, m.stride, m.size, m.store)
		t.Op(trace.OpOther, 3)
	}
	return t.Window(0, t.Total())
}

// seededBytes is a deterministic byte stream for writeTape, with a
// share of oversize selectors.
func seededBytes(n int, seed uint64) []byte {
	data := make([]byte, n)
	for i := range data {
		seed = seed*6364136223846793005 + 1442695040888963407
		data[i] = byte(seed >> 56)
		if i%4 == 2 && seed>>40&15 != 0 {
			data[i] &= 0x7f // one write in sixteen may be oversize
		}
	}
	return data
}

// TestRunWindowMatchesRef: stepping a window by runs is replaying its
// ops one by one, on the paper's machine and on another — for hand-built
// windows of one op a record (the seeded streams of ref_test.go), for
// data runs whose accesses follow within a line, and for tapes written
// in runs, whole and cut mid-record.
func TestRunWindowMatchesRef(t *testing.T) {
	for _, m := range []machine.Machine{Broadwell(), graviton()} {
		s, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, ops := range [][]trace.MicroOp{runWindow(60_000, 1), runWindow(40_000, 2), mixedWindow(30_000, 3), stridedWindow()} {
			checkWindow(t, s, trace.WindowOf(ops))
		}
		checkWindow(t, s, followerWindow())
		for seed := uint64(1); seed <= 4; seed++ {
			var tape trace.Tape
			writeTape(&tape, seededBytes(4*600, seed))
			total := tape.Total()
			for _, w := range [][2]uint64{{0, total}, {total / 3, total / 2}, {7, 1}, {total - 5, 100}} {
				checkWindow(t, s, tape.Window(w[0], w[1]))
			}
		}
	}
}

// TestSecondPassWindowReplaysTheSame: a window recorded on a second
// pass, by a tape told the window beforehand (what RecordWindow does
// for a run that outgrew its tape), replays to the result of the same
// window cut from the whole run's tape.
func TestSecondPassWindowReplaysTheSame(t *testing.T) {
	s, err := New(Broadwell())
	if err != nil {
		t.Fatal(err)
	}
	data := seededBytes(4*2000, 9)
	whole := &trace.Recorder{}
	writeTape(&whole.Tape, data)
	total := whole.Tape.Total()
	start, limit := total/2-12_345, uint64(50_000)
	told := &trace.Recorder{}
	told.Tape.Keep(start, limit)
	writeTape(&told.Tape, data)
	whole.Cut(start, limit)
	told.Cut(start, limit)
	if told.Tape.Bytes() > whole.Tape.Bytes() || whole.Ops.Len() != int(limit) {
		t.Fatalf("the tape told the window holds %d bytes, the whole run's trimmed to it %d, of a window of %d", told.Tape.Bytes(), whole.Tape.Bytes(), whole.Ops.Len())
	}
	if a, b := checkWindow(t, s, whole.Ops), checkWindow(t, s, told.Ops); *a != *b {
		t.Errorf("cut from the whole run\n%+v\nrecorded on a second pass\n%+v", *a, *b)
	}
}

// FuzzPipelineWindowVsOps decodes its input into tape writes and a
// window [start, start+limit) that may begin and end inside records
// and may cut a loop before its not-taken exit, and holds Run on the
// window to the per-op reference on the window's micro-ops.
func FuzzPipelineWindowVsOps(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(10))
	f.Add([]byte{3, 0, 0, 0, 3, 1, 0, 5, 3, 9, 0, 7, 2, 0, 0, 1}, uint32(0), uint32(100))                      // guards, a zero-trip loop, pc 0
	f.Add([]byte{3, 200, 0, 6, 1, 40, 0, 0x83, 0, 30, 0, 1, 3, 50, 0, 2}, uint32(150), uint32(95))             // starts in a loop, ends in one before its exit
	f.Add([]byte{0, 9, 0xf2, 2, 1, 7, 0xf3, 0xfd, 3, 1, 0xf1, 4, 1, 0, 0, 9}, uint32(65_530), uint32(140_000)) // counts past a record's field
	f.Add([]byte{1, 64, 0, 0, 1, 64, 0, 0x80, 1, 3, 0, 4}, uint32(60), uint32(30))                             // stride 0 and size 0, a negative stride
	s, err := New(Broadwell())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, start, limit uint32) {
		var tape trace.Tape
		writeTape(&tape, data[:min(len(data), 4*48)])
		checkWindow(t, s, tape.Window(uint64(start)%(tape.Total()+1), uint64(limit%200_000)))
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// windowFile assembles a window file whose header claims count
// instructions over the given record words.
func windowFile(count uint64, words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(windowMagic), windowVersion)
	for _, w := range append([]uint64{count}, words...) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// written returns the file Write makes of the window.
func written(t testing.TB, win Window) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, win); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// midRecordWindow is a recorded window that starts inside a loop,
// ends inside a strided run, and holds every kind of record between.
func midRecordWindow() *Recorder {
	c := New()
	rec := &Recorder{}
	c.AttachRecorder(rec)
	pcs := Sites("t/io", 3)
	c.Loop(pcs[0], 9)                    // 0..8
	c.Op(OpAVX, 4)                       // 9..12
	c.Stores(pcs[1], 0x7000, 5, -16, 32) // 13..17
	c.Branch(pcs[2], true)               // 18
	c.Loop(pcs[0], 70_000)               // 19..70018, two records
	c.Op(OpOther, 2)                     // 70019, 70020
	c.Loads(pcs[1], 1<<40, 100, 64, 8)   // 70021..70120
	c.Loop(pcs[2], 6)                    // never reached by the window
	rec.Cut(5, 70_050)                   // 5..70054
	return rec
}

func TestTraceIORoundTrip(t *testing.T) {
	ops := []MicroOp{
		{PC: 0x400010, Class: OpBranch, Taken: true},
		{PC: 0x400020, Addr: 0x12345678, Class: OpLoad, Size: 32},
		{PC: 0x400030, Addr: 0xDEADBEEF, Class: OpStore, Size: 16},
		{PC: 0x400040, Class: OpAVX},
		{Class: OpOther},
		{PC: 1<<32 - 1, Class: OpSSE},
		{Addr: 1<<64 - 1, Class: OpLoad},
	}
	hand := WindowOf(ops)
	if got := hand.MicroOps(); !slices.Equal(got, ops) {
		t.Fatalf("WindowOf(ops).MicroOps() = %+v, want the ops back", got)
	}
	for name, win := range map[string]Window{"hand-built": hand, "cut mid-record": midRecordWindow().Ops, "empty": {}} {
		file := written(t, win)
		got, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBranchCounts(t, name+", read back", got.tape)
		if got.Len() != win.Len() || firstDiff(got.MicroOps(), win.MicroOps()) >= 0 {
			t.Errorf("%s: read back %d ops, first difference at %d of %d", name, got.Len(), firstDiff(got.MicroOps(), win.MicroOps()), win.Len())
		}
		// A file holds the window and nothing of the run around it, so
		// what was read writes the same bytes.
		if again := written(t, got); !bytes.Equal(again, file) {
			t.Errorf("%s: the window read from %d bytes writes %d different ones", name, len(file), len(again))
		}
	}
}

// TestBranchTraceRoundTrip: what `vlab cbp` takes from a file is what the
// CBP harness takes from the recorder the file was written from.
func TestBranchTraceRoundTrip(t *testing.T) {
	rec := midRecordWindow()
	got, err := Read(bytes.NewReader(written(t, rec.Ops)))
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Ops.Branches()
	if br := got.Branches(); len(want) != 4+1+70_000 || got.Len() != 70_050 || firstDiff(br, want) >= 0 {
		t.Fatalf("%d branches in a window of %d read back, first difference at %d; want %d in 70050",
			len(br), got.Len(), firstDiff(br, want), len(want))
	}
	var live, played perEvent
	rec.Ops.Play(&live, &live)
	got.Play(&played, &played)
	if firstDiff(played.branches, live.branches) >= 0 || firstDiff(played.accesses, live.accesses) >= 0 {
		t.Error("the window read back plays differently from the one written")
	}
}

func TestTraceIORejectsGarbage(t *testing.T) {
	pc := uint64(0x400000) << 32
	op := func(class OpClass, n uint64) uint64 { return recOp | uint64(class)<<8 | n<<16 | pc }
	for name, file := range map[string][]byte{
		"bad magic":                  []byte("NOTATRACE HEADER"),
		"empty":                      nil,
		"another version":            binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32([]byte(windowMagic), 2), 0),
		"a class there is not":       windowFile(1, op(NumClasses, 1)),
		"an op record of loads":      windowFile(1, op(OpLoad, 1)),
		"an op record of branches":   windowFile(1, op(OpBranch, 1)),
		"a record of nothing":        windowFile(1, op(OpAVX, 0), op(OpAVX, 1)),
		"a flag on an op record":     windowFile(1, op(OpAVX, 1)|recFlag),
		"a reserved bit":             windowFile(1, op(OpAVX, 1)|1<<5),
		"a size on a branch":         windowFile(1, recBranch|1<<16|7<<8|pc),
		"a loop that is not flagged": windowFile(3, recLoop|3<<16|pc),
		"a mem record of one word":   windowFile(2, recMem|2<<16|8<<8|pc),
		"a mem record of two words":  windowFile(2, recMem|2<<16|8<<8|pc, 0x1000),
		"half a word":                windowFile(1, op(OpAVX, 1))[:20],
	} {
		if win, err := Read(bytes.NewReader(file)); err == nil {
			t.Errorf("%s: read as a window of %d instructions", name, win.Len())
		}
	}
	for name, file := range map[string][]byte{
		"an op record":  windowFile(5, op(OpSSE, 5)),
		"a mem record":  windowFile(2, recMem|recFlag|2<<16|8<<8|pc, 0x1000, ^uint64(7)),
		"a loop record": windowFile(3, recLoop|recFlag|3<<16|pc),
		"size 0":        windowFile(1, recMem|1<<16|pc, 0, 0),
	} {
		if _, err := Read(bytes.NewReader(file)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBranchTraceRejectsGarbage: a file cut short anywhere is an error,
// never a panic and never a shorter window read as if it were whole —
// which a list of branches with the tail missing would score fine as.
func TestBranchTraceRejectsGarbage(t *testing.T) {
	file := written(t, midRecordWindow().Ops)
	for n := range file {
		if win, err := Read(bytes.NewReader(file[:n])); err == nil {
			t.Fatalf("the first %d of %d bytes read as a window of %d instructions", n, len(file), win.Len())
		}
	}
}

// TestReadBranchTraceRejectsImpossibleWindow: the header's length is
// the records' length, neither more nor less.
func TestReadBranchTraceRejectsImpossibleWindow(t *testing.T) {
	pc := uint64(0x400000) << 32
	two := []uint64{recBranch | recFlag | 1<<16 | pc, recBranch | 1<<16 | pc}
	for _, claimed := range []uint64{0, 1, 3, 1 << 40} {
		if _, err := Read(bytes.NewReader(windowFile(claimed, two...))); err == nil {
			t.Errorf("accepted 2 branches as a window of %d instructions", claimed)
		}
	}
	win, err := Read(bytes.NewReader(windowFile(2, two...)))
	if err != nil || win.Len() != 2 || len(win.Branches()) != 2 {
		t.Errorf("a window made only of its branches: %d branches, window %d, %v", len(win.Branches()), win.Len(), err)
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadersDoNotTrustTheHeaderCount: a file is read at a cost in
// proportion to its length. The header here claims 2^63 instructions
// over 40 bytes of records.
func TestReadersDoNotTrustTheHeaderCount(t *testing.T) {
	pc := uint64(0x400000) << 32
	file := windowFile(1<<63, recOp|uint64(OpAVX)<<8|9<<16|pc, recMem|4<<16|8<<8|pc, 0x1000, 8, recLoop|recFlag|3<<16|pc)
	if n := allocatedBy(func() {
		if _, err := Read(bytes.NewReader(file)); err == nil {
			t.Error("Read accepted a header claiming more instructions than the file holds")
		}
	}); n > 64<<10 {
		t.Errorf("Read allocated %d bytes on a %d-byte file", n, len(file))
	}
}

// checkRead holds a window read from data to what any reader of the
// file may rely on, and returns its per-op form when that is small.
func checkRead(t *testing.T, data []byte, win Window) []MicroOp {
	records := (len(data) - 16) / 8
	if win.Len() > records*maxCount || (win.Len() == 0) != (records == 0) {
		t.Fatalf("%d instructions parsed from %d bytes", win.Len(), len(data))
	}
	if again := written(t, win); !bytes.Equal(again, data) {
		t.Fatalf("the window read from %d bytes writes %d different ones", len(data), len(again))
	}
	if win.Len() > 1<<20 {
		return nil
	}
	ops := win.MicroOps()
	if len(ops) != win.Len() {
		t.Fatalf("%d micro-ops in a window of %d", len(ops), win.Len())
	}
	return ops
}

// FuzzReadTrace: any bytes either fail cleanly or parse to a window the
// input is long enough to hold, which writes those bytes back and whose
// per-op form survives a second trip. Seeds (testdata/fuzz): a round
// trip, a truncated body, a lying count, an invalid class, a flag where
// none belongs and the widest pc.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		win, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		ops := checkRead(t, data, win)
		again, err := Read(bytes.NewReader(written(t, WindowOf(ops))))
		if err != nil || firstDiff(again.MicroOps(), ops) >= 0 {
			t.Fatalf("re-read of %d parsed ops: %d ops, %v", len(ops), again.Len(), err)
		}
	})
}

// FuzzReadBranchTrace is the same wall for what `vlab cbp` takes from a
// file: the window's branches are the branches among its ops, however
// they are asked for. Seeds: a round trip, a truncated body, a lying
// count, a window smaller than its records, an empty one and the
// widest pc.
func FuzzReadBranchTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		win, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		ops := checkRead(t, data, win)
		if ops == nil && win.Len() > 0 {
			return
		}
		var want []MicroOp
		for _, op := range ops {
			if op.IsBranch() {
				want = append(want, op)
			}
		}
		var seen perEvent
		win.Play(&seen, nil)
		if br := win.Branches(); firstDiff(br, want) >= 0 || firstDiff(seen.branches, want) >= 0 {
			t.Fatalf("%d branches listed and %d played, %d among the window's %d ops", len(br), len(seen.branches), len(want), len(ops))
		}
	})
}

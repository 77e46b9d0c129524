package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// traceFile assembles a VCTR file whose header claims count records.
func traceFile(count uint64, records ...[recordSize]byte) []byte {
	b := append([]byte(traceMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(b[4:], traceVersion)
	binary.LittleEndian.PutUint64(b[8:], count)
	for _, r := range records {
		b = append(b, r[:]...)
	}
	return b
}

// branchFile assembles a VCBR file the same way.
func branchFile(count, window uint64, records ...[branchRecordSize]byte) []byte {
	b := append([]byte(branchMagic), make([]byte, 20)...)
	binary.LittleEndian.PutUint32(b[4:], branchVersion)
	binary.LittleEndian.PutUint64(b[8:], count)
	binary.LittleEndian.PutUint64(b[16:], window)
	for _, r := range records {
		b = append(b, r[:]...)
	}
	return b
}

func opRecord(pc uint64, class byte) (r [recordSize]byte) {
	binary.LittleEndian.PutUint64(r[0:], pc)
	r[16] = class
	return r
}

func branchRecord(pc uint64) (r [branchRecordSize]byte) {
	binary.LittleEndian.PutUint64(r[0:], pc)
	return r
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
// proportion to its length. Both headers here claim 16M records and
// carry one; reserving the claim up front would be 256 MB.
func TestReadersDoNotTrustTheHeaderCount(t *testing.T) {
	const claimed = 1 << 24
	if n := allocatedBy(func() {
		if _, err := ReadTrace(bytes.NewReader(traceFile(claimed, opRecord(0x400000, 5)))); err == nil {
			t.Error("ReadTrace accepted a header claiming more records than the file holds")
		}
	}); n > 4<<20 {
		t.Errorf("ReadTrace allocated %d bytes on a 35-byte file", n)
	}
	if n := allocatedBy(func() {
		if _, _, err := ReadBranchTrace(bytes.NewReader(branchFile(claimed, claimed, branchRecord(0x400000)))); err == nil {
			t.Error("ReadBranchTrace accepted a header claiming more records than the file holds")
		}
	}); n > 4<<20 {
		t.Errorf("ReadBranchTrace allocated %d bytes on a 33-byte file", n)
	}
}

func TestReadersRejectOutOfRangePC(t *testing.T) {
	_, err := ReadTrace(bytes.NewReader(traceFile(1, opRecord(1<<32, 5))))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ReadTrace on a pc of 2^32: %v, want an out-of-range error", err)
	}
	_, _, err = ReadBranchTrace(bytes.NewReader(branchFile(1, 10, branchRecord(1<<32|0x400000))))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ReadBranchTrace on a pc past 2^32: %v, want an out-of-range error", err)
	}
	if ops, err := ReadTrace(bytes.NewReader(traceFile(1, opRecord(1<<32-1, 5)))); err != nil || ops[0].PC != 1<<32-1 {
		t.Errorf("ReadTrace on the largest pc: %v %v", ops, err)
	}
}

func TestReadBranchTraceRejectsImpossibleWindow(t *testing.T) {
	if _, _, err := ReadBranchTrace(bytes.NewReader(branchFile(0, 0))); err == nil {
		t.Error("accepted a window of 0 instructions")
	}
	two := [][branchRecordSize]byte{branchRecord(0x400000), branchRecord(0x400010)}
	if _, _, err := ReadBranchTrace(bytes.NewReader(branchFile(2, 1, two...))); err == nil {
		t.Error("accepted 2 branches in a window of 1 instruction")
	}
	if br, win, err := ReadBranchTrace(bytes.NewReader(branchFile(2, 2, two...))); err != nil || len(br) != 2 || win != 2 {
		t.Errorf("a window made only of its branches: %d branches, window %d, %v", len(br), win, err)
	}
}

// FuzzReadTrace: any bytes either fail cleanly or parse to ops the
// input is long enough to hold, and those survive a write and re-read.
// Seeds (testdata/fuzz): a round trip, a truncated body, a lying
// count, an invalid class and a pc past 32 bits.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) < 16+recordSize*len(ops) {
			t.Fatalf("%d ops parsed from %d bytes", len(ops), len(data))
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, ops); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&buf)
		if err != nil || !slices.Equal(again, ops) {
			t.Fatalf("re-read of %d parsed ops: %d ops, %v", len(ops), len(again), err)
		}
	})
}

// FuzzReadBranchTrace is the same wall for the VCBR parser, plus the
// header's promise: a window at least as long as its branches.
func FuzzReadBranchTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br, window, err := ReadBranchTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) < 24+branchRecordSize*len(br) || window == 0 || window < uint64(len(br)) {
			t.Fatalf("%d branches in a window of %d parsed from %d bytes", len(br), window, len(data))
		}
		var buf bytes.Buffer
		if err := WriteBranchTrace(&buf, br, window); err != nil {
			t.Fatal(err)
		}
		again, win, err := ReadBranchTrace(&buf)
		if err != nil || win != window || !slices.Equal(again, br) {
			t.Fatalf("re-read of %d parsed branches: %d branches, window %d, %v", len(br), len(again), win, err)
		}
	})
}

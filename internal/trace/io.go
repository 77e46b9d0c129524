package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The window container `vlab encode -optrace` writes and `vlab uarch`
// and `vlab cbp` read: a window's records, each clipped to the window, in
// the tape's own format. Little-endian:
//
//	magic "VCTW" | u32 version | u64 instructions | u64 words...
const (
	windowMagic   = "VCTW"
	windowVersion = 1
)

// Write serializes the window to w.
func Write(w io.Writer, win Window) error {
	bw := bufio.NewWriter(w) // a failed Write makes the rest no-ops and is what Flush reports
	var b [8]byte
	put := func(word uint64) {
		binary.LittleEndian.PutUint64(b[:], word)
		bw.Write(b[:])
	}
	bw.Write(binary.LittleEndian.AppendUint32([]byte(windowMagic), windowVersion))
	put(uint64(win.Len()))
	var r Run
	for c := win.Cursor(); c.Next(&r); {
		words, n := r.words()
		for _, word := range words[:n] {
			put(word)
		}
	}
	return bw.Flush()
}

// Read deserializes a window written by Write. The header's count is a
// claim the records are held to, never a size to reserve: every record
// is checked, and reading costs memory in proportion to the bytes read.
func Read(r io.Reader) (Window, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Window{}, fmt.Errorf("trace: %w", err)
	}
	if len(data) < 16 || string(data[:4]) != windowMagic {
		return Window{}, errors.New("trace: short header or bad magic (not a vcprof window)")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != windowVersion {
		return Window{}, fmt.Errorf("trace: unsupported version %d", v)
	}
	if len(data)%8 != 0 {
		return Window{}, fmt.Errorf("trace: truncated inside a word, %d bytes in", len(data))
	}
	words := make([]uint64, len(data)/8-2)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[16+8*i:])
	}
	var total, brs uint64
	for rest := words; len(rest) > 0; {
		n := recWords(rest[0])
		if len(rest) < n {
			return Window{}, fmt.Errorf("trace: truncated inside a record, at instruction %d", total)
		}
		// A record is well formed if it holds an instruction, of a class
		// there is, and is spelled the one way Write spells its run.
		var run Run
		run.set(rest, 0, countOf(rest[0]))
		if again, _ := run.words(); run.Count == 0 || run.Class >= NumClasses || !slices.Equal(again[:n], rest[:n]) {
			return Window{}, fmt.Errorf("trace: malformed record %#x at instruction %d", rest[0], total)
		}
		total += uint64(run.Count)
		if run.Class == OpBranch {
			brs += uint64(run.Count)
		}
		rest = rest[n:]
	}
	if claimed := binary.LittleEndian.Uint64(data[8:]); total != claimed {
		return Window{}, fmt.Errorf("trace: header claims %d instructions, the records hold %d", claimed, total)
	}
	t := &Tape{chunks: [][]uint64{words}, heads: []chunkHead{{0, brs}}, total: total, end: total}
	return t.Window(0, total), nil
}

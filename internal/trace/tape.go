package trace

import (
	"fmt"
	"slices"
	"sort"
)

// Tape is the recorded instruction stream of one run: the records a Ctx
// hands its recorder, appended as they happen and never expanded. It is
// the one in-memory trace format; a window of micro-ops, a branch list
// or a replay into live sinks are views cut from it afterwards, so one
// encode serves any number of windows and simulators. The zero Tape is
// empty and ready to write.
//
// A record is one header word, and for a memory run two more:
//
//	bits  0–1   kind: op, mem, branch, loop
//	bit   2     mem: store · branch: taken · loop: set
//	bits  8–15  op: class · mem: access size in bytes, 1..255
//	bits 16–31  count: the instructions the record stands for, 1..65535
//	bits 32–63  pc (an op's is its class's bulk site, unless the window
//	            was built by hand from micro-ops that chose their own)
//	mem only:   word 1 = first address, word 2 = stride (two's complement)
//
// No instruction is dropped to fit: a count wider than its field
// becomes several records (a loop's leading iterations become a record
// of taken branches), and the writers count every instruction they are
// shown. An access size is clamped to 1..255 the way the cache model
// reads one: a size below 1 is 1, and no access is wider than 255.
//
// What a tape keeps is bounded. Shown a whole run, it keeps the most
// recent tapeChunks chunks of it: a run can be a thousand times longer
// than any window cut from it, and which stretch matters is known only
// at its end. Told how the window will be placed (Aim), it also lets go
// of every chunk that lies wholly below where the window can still
// start, so it keeps about the run's last max(limit, (1−frac)·total)
// instructions. Told the window itself beforehand (Keep), it keeps
// exactly the records that reach into it, whatever their number.
type Tape struct {
	chunks  [][]uint64  // a record never straddles two; written ones have capacity chunkWords
	heads   []chunkHead // heads[i] describes chunks[i]
	dropped int         // chunks let go of before chunks[0]: chunks[i] is chunk dropped+i of the run
	total   uint64      // instructions shown to the tape
	end     uint64      // index after the last instruction kept
	keep    bool        // keep only records reaching into [lo, hi): see Keep
	lo, hi  uint64
	frac    float64 // the window will start at Place(total, frac, limit): see Aim
	limit   uint64
}

// chunkHead is what a tape knows of a chunk without reading it.
type chunkHead struct {
	first    uint64 // dynamic index of the chunk's first instruction
	branches uint64 // branch instructions among its records
}

const (
	recOp = iota
	recMem
	recBranch
	recLoop

	recFlag  = 1 << 2 // store (mem) or taken (branch; a loop's all but last)
	maxCount = 1<<16 - 1

	// chunkWords is the size of one storage chunk, 128 KB. A vcbench
	// encode is a few MB of records, so its tape is a few dozen
	// allocations that are never copied: grown by append, the same
	// words would be allocated about twice over and moved each time.
	chunkWords = 16 << 10

	// tapeChunks bounds a tape shown a whole run at 32 MB, the last 20
	// to 25 million instructions of an encode.
	tapeChunks = 256
)

func header(kind int, count int, pc PC) uint64 {
	return uint64(kind) | uint64(count)<<16 | uint64(pc)<<32
}

func countOf(hdr uint64) int { return int(hdr >> 16 & maxCount) }

// isBranchRec reports whether the record hdr begins is of branches, as
// its readers take it: a branch or loop record, or (against Op's
// contract) an op record of class OpBranch.
func isBranchRec(hdr uint64) bool {
	return hdr&3 >= recBranch || hdr&3 == recOp && OpClass(hdr>>8) == OpBranch
}

// Keep tells an empty tape the window it is wanted for: it will keep
// only the records that reach into [start, start+limit), without bound.
func (t *Tape) Keep(start, limit uint64) {
	t.keep, t.lo, t.hi = true, start, start+limit
	if t.hi < start {
		t.hi = ^uint64(0)
	}
}

// Aim tells an empty tape how the window it is wanted for will be
// placed once the run is over, at Place(total, frac, limit). The tape
// still takes every record, and lets go of the chunks that window can
// no longer reach. The zero tape is aimed at a window that may start
// anywhere.
func (t *Tape) Aim(frac float64, limit uint64) { t.frac, t.limit = frac, limit }

// Place returns where a window of up to limit instructions at fraction
// frac of a run of total starts: at ⌊frac·total⌋, or earlier so that it
// ends with the run. It never falls as total grows, so Place of the
// instructions seen so far is a floor under the whole run's window.
func Place(total uint64, frac float64, limit uint64) uint64 {
	return min(uint64(float64(total)*frac), total-min(limit, total))
}

// reserve counts a record of n instructions, branches if br, and
// returns the chunk its words go into, nil if the tape does not keep
// it. A new chunk is opened when the tail lacks room, in the storage of
// the oldest chunk if that lies wholly below the aimed window's floor,
// or if the tape is shown a whole run and already tapeChunks long.
func (t *Tape) reserve(words, n int, br bool) *[]uint64 {
	idx := t.total
	t.total += uint64(n)
	if t.keep && (t.total <= t.lo || idx >= t.hi) {
		return nil
	}
	k := len(t.chunks)
	if k == 0 || len(t.chunks[k-1])+words > chunkWords {
		var c []uint64
		floor := Place(t.total, t.frac, t.limit)
		for len(t.chunks) > 0 && (t.chunkEnd(0) <= floor || !t.keep && len(t.chunks) == tapeChunks) {
			if c == nil {
				c = t.chunks[0][:0]
			}
			last := copy(t.chunks, t.chunks[1:])
			t.chunks[last] = nil
			t.chunks = t.chunks[:last]
			t.heads = t.heads[:copy(t.heads, t.heads[1:])]
			t.dropped++
		}
		if c == nil {
			c = make([]uint64, 0, chunkWords)
		}
		t.chunks = append(t.chunks, c)
		t.heads = append(t.heads, chunkHead{first: idx})
		k = len(t.chunks)
	}
	if br {
		t.heads[k-1].branches += uint64(n)
	}
	t.end = t.total
	return &t.chunks[k-1]
}

// tapePos is a place in a tape's records: word word of the run's chunk
// chunk, counted from the run's first chunk, so that a position stays
// put while the tape lets go of older chunks, and at, the index of the
// instruction a record there would begin with.
type tapePos struct {
	chunk, word int
	at          uint64
}

// pos returns the position the next record's words would go to if the
// tail chunk had room for them.
func (t *Tape) pos() tapePos {
	k := len(t.chunks)
	if k == 0 {
		return tapePos{t.dropped, 0, t.total}
	}
	return tapePos{t.dropped + k - 1, len(t.chunks[k-1]), t.total}
}

// repeat appends again the records written between from and to, so
// the tape ends exactly as if their events had been reported again. A
// span that fits the tail chunk's room opens no chunk, so it is counted
// once and appended a chunk segment at a time; any other goes record by
// record through reserve, which opens chunks where reporting the events
// would. It reports whether it could: a span must still be on the tape,
// and must stay on it while it is copied. Copying the records of c
// chunks opens c+1 chunks at most, and on a full ring each one opened
// lets go of the oldest; a span that close to the ring's start is left
// alone, as is one whose first chunk the aimed window's floor could pass
// during the copy, and any span of a tape told its window (which skips
// records, so a span need not hold its events).
func (t *Tape) repeat(from, to tapePos) bool {
	if t.keep || from == to {
		return !t.keep
	}
	i, tail := from.chunk-t.dropped, len(t.chunks)-1
	if i < 0 {
		return false
	}
	words := to.word - from.word
	for _, c := range t.chunks[i : to.chunk-t.dropped] {
		words += len(c)
	}
	bulk := len(t.chunks[tail])+words <= chunkWords
	reach := to.chunk - from.chunk + 1
	if !bulk && (i < len(t.chunks)+reach+1-tapeChunks || t.chunkEnd(i) <= Place(t.total+to.at-from.at, t.frac, t.limit)) {
		return false
	}
	var br uint64
	for ci := from.chunk; ci <= to.chunk; ci++ {
		src := t.chunks[ci-t.dropped] // the tape may have let go of older chunks: index it afresh
		lo, hi := 0, len(src)
		if ci == from.chunk {
			lo = from.word
		}
		if ci == to.chunk {
			hi = to.word
		}
		if bulk {
			for i := lo; i < hi; i += recWords(src[i]) {
				if isBranchRec(src[i]) {
					br += uint64(countOf(src[i]))
				}
			}
			t.chunks[tail] = append(t.chunks[tail], src[lo:hi]...)
			continue
		}
		for i := lo; i < hi; {
			hdr := src[i]
			words := recWords(hdr)
			c := t.reserve(words, countOf(hdr), isBranchRec(hdr))
			*c = append(*c, src[i:i+words]...)
			i += words
		}
	}
	if bulk {
		t.total += to.at - from.at
		t.end = t.total
		t.heads[tail].branches += br
	}
	return true
}

// Op appends n non-memory, non-branch instructions of one class.
func (t *Tape) Op(class OpClass, n int) {
	hdr := header(recOp, 0, classPC(class)) | uint64(class)<<8
	for n > 0 {
		k := min(n, maxCount)
		if c := t.reserve(1, k, class == OpBranch); c != nil {
			*c = append(*c, hdr|uint64(k)<<16)
		}
		n -= k
	}
}

// Mem appends a strided run of count loads or stores of size bytes, the
// i-th at addr + i·stride.
func (t *Tape) Mem(pc PC, addr uint64, count, stride, size int, store bool) {
	hdr := header(recMem, 0, pc) | uint64(min(max(size, 1), 255))<<8
	if store {
		hdr |= recFlag
	}
	for count > 0 {
		k := min(count, maxCount)
		if c := t.reserve(3, k, false); c != nil {
			*c = append(*c, hdr|uint64(k)<<16, addr, uint64(stride))
		}
		addr += uint64(k) * uint64(stride)
		count -= k
	}
}

// Branch appends one conditional branch.
func (t *Tape) Branch(pc PC, taken bool) { t.branches(pc, taken, 1) }

func (t *Tape) branches(pc PC, taken bool, n int) {
	hdr := header(recBranch, n, pc)
	if taken {
		hdr |= recFlag
	}
	if c := t.reserve(1, n, true); c != nil {
		*c = append(*c, hdr)
	}
}

// Loop appends the backward branch of a counted loop: iters-1 taken
// outcomes and a final not-taken one; iters < 1 is the guard test
// alone, one not-taken branch.
func (t *Tape) Loop(pc PC, iters int) {
	if iters < 1 {
		t.Branch(pc, false)
		return
	}
	for iters > maxCount {
		t.branches(pc, true, maxCount)
		iters -= maxCount
	}
	if c := t.reserve(1, iters, true); c != nil {
		*c = append(*c, header(recLoop, iters, pc)|recFlag)
	}
}

// Total returns the number of dynamic instructions the tape was shown.
func (t *Tape) Total() uint64 { return t.total }

// Bytes returns the storage the tape holds.
func (t *Tape) Bytes() int64 {
	var words int
	for _, c := range t.chunks {
		words += cap(c)
	}
	return int64(words) * 8
}

// clip intersects the window [start, start+limit) with the run.
func (t *Tape) clip(start, limit uint64) (lo, hi uint64) {
	lo = min(start, t.total)
	hi = start + limit
	if hi < start || hi > t.total {
		hi = t.total
	}
	return lo, hi
}

// Holds reports whether the tape has kept every instruction the run
// has in [start, start+limit).
func (t *Tape) Holds(start, limit uint64) bool {
	lo, hi := t.clip(start, limit)
	return lo == hi || len(t.heads) > 0 && t.heads[0].first <= lo && hi <= t.end
}

// Window returns the view of the instructions the run has in
// [start, start+limit), which the tape must hold. The view reads the
// tape in place: it stays valid through a Trim to the same window and
// must not outlive a later write.
func (t *Tape) Window(start, limit uint64) Window {
	if !t.Holds(start, limit) {
		panic(fmt.Sprintf("trace: window [%d, +%d) of a %d-instruction run is not on the tape", start, limit, t.total))
	}
	lo, hi := t.clip(start, limit)
	return Window{t, lo, hi}
}

// Trim lets go of every chunk that holds nothing of the window.
func (t *Tape) Trim(start, limit uint64) {
	w := t.Window(start, limit)
	a := max(t.chunkOf(w.start), 0)
	b := sort.Search(len(t.heads), func(i int) bool { return t.heads[i].first >= w.end })
	if b < len(t.heads) {
		t.end = t.heads[b].first
	}
	t.chunks, t.heads = slices.Clone(t.chunks[a:b]), slices.Clone(t.heads[a:b])
	t.dropped += a
}

// chunkOf returns the index of the chunk that holds instruction idx,
// -1 if the tape's chunks start after it.
func (t *Tape) chunkOf(idx uint64) int {
	return sort.Search(len(t.heads), func(i int) bool { return t.heads[i].first > idx }) - 1
}

// chunkEnd returns the index after chunk i's last instruction.
func (t *Tape) chunkEnd(i int) uint64 {
	if i+1 < len(t.heads) {
		return t.heads[i+1].first
	}
	return t.end
}

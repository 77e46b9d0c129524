package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace container written by cmd/vencode and consumed by
// cmd/uarchsim and cmd/cbpsim. Little-endian; fixed 19-byte records:
//
//	magic "VCTR" | u32 version | u64 count
//	records: u64 pc | u64 addr | u8 class | u8 size | u8 taken
const (
	traceMagic   = "VCTR"
	traceVersion = 1
	recordSize   = 19
)

// WriteTrace serializes ops to w.
func WriteTrace(w io.Writer, ops []MicroOp) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(ops)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, op := range ops {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(op.PC))
		binary.LittleEndian.PutUint64(rec[8:16], op.Addr)
		rec[16] = byte(op.Class)
		rec[17] = op.Size
		if op.Taken {
			rec[18] = 1
		} else {
			rec[18] = 0
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPrealloc bounds what a header's count may reserve before any
// record has been read. Past it the slice grows as records arrive, so
// reading a file costs memory in proportion to its real length, not to
// what its first 16 bytes claim.
const maxPrealloc = 1 << 16

// readOps reads count fixed-size records, decoding each into an op.
func readOps(br *bufio.Reader, count uint64, rec []byte, decode func() (MicroOp, error)) ([]MicroOp, error) {
	ops := make([]MicroOp, 0, min(count, maxPrealloc))
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		op, err := decode()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// readPC decodes a stored 64-bit pc, rejecting one a PC cannot hold.
func readPC(b []byte) (PC, error) {
	pc := binary.LittleEndian.Uint64(b)
	if pc > math.MaxUint32 {
		return 0, fmt.Errorf("pc %#x out of range", pc)
	}
	return PC(pc), nil
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]MicroOp, error) {
	br := bufio.NewReader(r)
	var head [16]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[0:4]) != traceMagic {
		return nil, errors.New("trace: bad magic (not a vcprof trace)")
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(head[8:16])
	const maxOps = 1 << 31
	if count > maxOps {
		return nil, fmt.Errorf("trace: unreasonable op count %d", count)
	}
	var rec [recordSize]byte
	return readOps(br, count, rec[:], func() (MicroOp, error) {
		cls := OpClass(rec[16])
		if cls >= NumClasses {
			return MicroOp{}, fmt.Errorf("invalid op class %d", rec[16])
		}
		pc, err := readPC(rec[0:8])
		return MicroOp{
			PC:    pc,
			Addr:  binary.LittleEndian.Uint64(rec[8:16]),
			Class: cls,
			Size:  rec[17],
			Taken: rec[18] != 0,
		}, err
	})
}

// Branch-only trace container ("VCBR"): the compact format the CBP
// harness consumes — 10-byte records of (pc, taken), roughly 2x smaller
// per branch than full micro-op traces that carry addresses.
const (
	branchMagic      = "VCBR"
	branchVersion    = 1
	branchRecordSize = 9
)

// WriteBranchTrace serializes only the conditional branches of ops,
// recording the total instruction window size for MPKI computation.
func WriteBranchTrace(w io.Writer, ops []MicroOp, windowInsts uint64) error {
	bw := bufio.NewWriter(w)
	var branches uint64
	for _, op := range ops {
		if op.IsBranch() {
			branches++
		}
	}
	if _, err := bw.WriteString(branchMagic); err != nil {
		return err
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], branchVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], branches)
	binary.LittleEndian.PutUint64(hdr[12:20], windowInsts)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [branchRecordSize]byte
	for _, op := range ops {
		if !op.IsBranch() {
			continue
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(op.PC))
		if op.Taken {
			rec[8] = 1
		} else {
			rec[8] = 0
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBranchTrace deserializes a VCBR stream, returning the branch ops
// and the instruction window they were cut from.
func ReadBranchTrace(r io.Reader) ([]MicroOp, uint64, error) {
	br := bufio.NewReader(r)
	var head [24]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, 0, fmt.Errorf("trace: short branch-trace header: %w", err)
	}
	if string(head[0:4]) != branchMagic {
		return nil, 0, errors.New("trace: bad magic (not a vcprof branch trace)")
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != branchVersion {
		return nil, 0, fmt.Errorf("trace: unsupported branch-trace version %d", v)
	}
	count := binary.LittleEndian.Uint64(head[8:16])
	window := binary.LittleEndian.Uint64(head[16:24])
	if count > 1<<31 {
		return nil, 0, fmt.Errorf("trace: unreasonable branch count %d", count)
	}
	if window == 0 || window < count {
		return nil, 0, fmt.Errorf("trace: window of %d instructions cannot hold %d branches", window, count)
	}
	var rec [branchRecordSize]byte
	ops, err := readOps(br, count, rec[:], func() (MicroOp, error) {
		pc, err := readPC(rec[0:8])
		return MicroOp{PC: pc, Class: OpBranch, Taken: rec[8] != 0}, err
	})
	return ops, window, err
}

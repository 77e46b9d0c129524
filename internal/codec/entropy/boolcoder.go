// Package entropy implements the adaptive binary range coder used by the
// encoder models, patterned after the VP8/VP9 boolean coder that AV1's
// multi-symbol coder descends from. Probabilities adapt per coded bit,
// so the coder's control flow — the branch on each coded bit — is
// genuinely data-dependent, which is exactly the branch behaviour the
// paper's CBP study measures on encoder traces.
package entropy

import (
	"errors"
	"math/bits"

	"vcprof/internal/trace"
)

// Prob is the probability (out of 256) that the next bit is zero.
type Prob uint8

// DefaultProb is the uninformed prior.
const DefaultProb Prob = 128

// Adapt moves the probability toward the observed bit with a 1/32 step,
// the backward-adaptation scheme used by VP9-era coders.
func (p Prob) Adapt(bit int) Prob {
	if bit == 0 {
		return p + (255-p)>>5
	}
	return p - p>>5
}

var (
	pcBitBranch = trace.Site("entropy.Bool/bitsplit")
	pcCarry     = trace.Site("entropy.Bool/carry")
	pcByteOut   = trace.Site("entropy.Bool/byteout")
)

// The boolean coder is inlined at every syntax-coding call site in a
// production encoder, so the hot "split" branch exists as many static
// branches. Callers select the active call site with SetSite.

// Encoder is a binary range encoder (VP8 boolean-coder algorithm)
// writing to an in-memory buffer.
type Encoder struct {
	low    uint32
	rng    uint32 // 128..255 between symbols
	count  int
	out    []byte
	tc     *trace.Ctx
	vbase  uint64
	site   trace.PC
	closed bool

	// An open syntax writer on a count-only context: held is Ok,
	// BitAdaptive counts the bits coded in pending, and End adds them,
	// with the bytes emitted since len(out) was mark, through held.
	held    trace.Tally
	pending int
	mark    int
}

// NewEncoder returns an encoder reporting instrumentation to tc (which
// may be nil). vbase is the virtual address of the output bitstream
// buffer for cache modeling.
func NewEncoder(tc *trace.Ctx, vbase uint64) *Encoder {
	e := &Encoder{}
	e.Reset(tc, vbase)
	return e
}

// Reset makes e a new encoder on tc and vbase that writes into the
// output buffer it already has: the bytes a previous Finish returned
// are overwritten, and a coder that is reset per segment grows its
// buffer only past the longest segment it has coded.
func (e *Encoder) Reset(tc *trace.Ctx, vbase uint64) {
	*e = Encoder{out: e.out[:0], rng: 255, count: -24, tc: tc, vbase: vbase, site: pcBitBranch}
}

// SetCtx redirects instrumentation to another context. Schedulers that
// move an in-progress entropy partition between workers (x264's
// frame-row tasks) retarget the coder at each task boundary. An open
// writer's counts go to the context they were coded on, and the rest
// of its bits report one by one.
func (e *Encoder) SetCtx(tc *trace.Ctx) {
	e.End()
	e.tc = tc
}

// Begin opens a syntax writer, a run of bits nothing reads the
// context's counters in the middle of. On a count-only context the
// encoder then counts the bits itself and End adds them with one
// Tally; on a nil or hooked one Begin does nothing, and every bit
// reports as it is coded. A Begin inside an open writer is a no-op.
func (e *Encoder) Begin() {
	if !e.held.Ok() {
		e.held, e.pending, e.mark = e.tc.Tally(trace.StageEntropy), 0, len(e.out)
	}
}

// End closes the writer Begin opened, adding what its bits count to the
// context's Mix and entropy stage. Without an open writer it does
// nothing.
func (e *Encoder) End() {
	if t := e.held; t.Ok() {
		n, out := e.pending, len(e.out)-e.mark
		t.Add(trace.OpBranch, n+out)
		t.Add(trace.OpLoad, n)
		t.Add(trace.OpStore, n+out)
		t.Add(trace.OpOther, splitOps*n)
		e.held = trace.Tally{}
	}
}

// SetSite selects the static call site subsequent bits are attributed
// to (the inlined copy of the coder in the caller), restoring the
// per-syntax-element branch identity real binaries have. A zero pc
// resets to the generic site.
func (e *Encoder) SetSite(pc trace.PC) {
	if pc == 0 {
		e.site = pcBitBranch
		return
	}
	e.site = pc
}

// Bit encodes one bit with probability p that the bit is zero.
func (e *Encoder) Bit(bit int, p Prob) { e.BitAdaptive(bit, &p) }

// BitAdaptive encodes a bit against a context probability and adapts
// it. It holds the coder itself, so that a coded bit is one call
// whichever of the two its caller makes.
func (e *Encoder) BitAdaptive(bit int, pp *Prob) {
	// one is all ones for a nonzero bit: the adaptation (Adapt's two
	// steps) and the interval (a one takes the part above split, a zero
	// the part below) are picked with it, so neither is a branch.
	one := uint32((bit | -bit) >> (bits.UintSize - 1))
	p := *pp
	*pp = p + Prob(uint32((255-p)>>5)&^one) - Prob(uint32(p>>5)&one)
	split := 1 + (((e.rng - 1) * uint32(p)) >> 8)
	e.low += split & one
	e.rng = split&^one | (e.rng-split)&one
	// rng is 1..255 here, so shift is 0..7. The & 31 spares the shifts
	// by it Go's fix-up for counts past 31.
	shift := (bits.LeadingZeros32(e.rng) - 24) & 31
	e.rng <<= uint(shift)
	e.count += shift
	carry, out := false, 0 // out: the bytes this bit emits
	if e.count >= 0 {
		out = 1
		offset := shift - e.count
		if carry = (e.low<<uint(offset-1))&0x80000000 != 0; carry {
			// Carry propagation into already-emitted bytes.
			i := len(e.out) - 1
			for i >= 0 && e.out[i] == 0xFF {
				e.out[i] = 0
				i--
			}
			if i >= 0 {
				e.out[i]++
			}
		}
		e.out = append(e.out, byte(e.low>>uint(24-offset)))
		e.low <<= uint(offset)
		shift = e.count
		e.low &= 0xFFFFFF
		e.count -= 8
	}
	e.low <<= uint(shift) & 31

	// What the bit reports: the split step (a branch on the coded bit,
	// the context probability loaded and its adaptation written back,
	// and splitOps scalar ops), and for an output byte the carry branch
	// and its store. An open writer adds them up at End.
	if e.held.Ok() {
		e.pending++
		return
	}
	if t := e.tc.Tally(trace.StageEntropy); t.Ok() {
		t.Add(trace.OpBranch, 1+out)
		t.Add(trace.OpLoad, 1)
		t.Add(trace.OpStore, 1+out)
		t.Add(trace.OpOther, splitOps)
	} else if e.tc != nil {
		e.report(bit != 0, carry, out == 1)
	}
}

// splitOps is what a coded bit's split mul/shift/add and interval
// update execute.
const splitOps = 6

// report is Bit's event sequence on a hooked context.
func (e *Encoder) report(taken, carry, byteOut bool) {
	prevStage := e.tc.BeginStage(trace.StageEntropy)
	// The split comparison is the canonical data-dependent branch of a
	// range coder: its direction is the coded bit itself.
	e.tc.Step(e.site, taken, trace.ScratchBase+0x4000, 8, 2, splitOps)
	if byteOut {
		e.tc.Branch(pcCarry, carry)
		e.tc.Stores(pcByteOut, e.vbase+uint64(len(e.out)-1), 1, 1, 1)
	}
	e.tc.EndStage(prevStage)
}

// Literal encodes an n-bit value MSB-first with flat probability.
func (e *Encoder) Literal(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		e.Bit(int(v>>uint(i))&1, DefaultProb)
	}
}

// Finish flushes the encoder, its 32 flush bits one writer (with the
// open one, if any), and returns the complete bitstream, which is the
// encoder's own buffer and valid until its next Reset. It is
// idempotent; no bits may be encoded after the first call.
func (e *Encoder) Finish() []byte {
	if !e.closed {
		e.Begin()
		for i := 0; i < 32; i++ {
			e.Bit(0, DefaultProb)
		}
		e.End()
		e.closed = true
	}
	return e.out
}

// Len returns the current output length in bytes (without flush bits).
func (e *Encoder) Len() int { return len(e.out) }

// ErrTruncated is returned when the decoder reads past the bitstream.
var ErrTruncated = errors.New("entropy: bitstream truncated")

// Decoder is the matching binary range decoder.
type Decoder struct {
	buf      []byte
	pos      int
	value    uint32
	rng      uint32
	count    int
	overread int
}

// NewDecoder reads a bitstream produced by Encoder.
func NewDecoder(buf []byte) *Decoder {
	d := &Decoder{buf: buf, rng: 255, count: -8}
	d.fill()
	return d
}

func (d *Decoder) fill() {
	shift := 32 - 8 - (d.count + 8)
	for shift >= 0 {
		var b byte
		if d.pos < len(d.buf) {
			b = d.buf[d.pos]
			d.pos++
		} else {
			d.overread++
		}
		d.count += 8
		d.value |= uint32(b) << uint(shift)
		shift -= 8
	}
}

// Bit decodes one bit with probability p that the bit is zero.
func (d *Decoder) Bit(p Prob) int {
	split := 1 + (((d.rng - 1) * uint32(p)) >> 8)
	bigSplit := split << 24
	var bit int
	if d.value >= bigSplit {
		bit = 1
		d.value -= bigSplit
		d.rng -= split
	} else {
		d.rng = split
	}
	shift := (bits.LeadingZeros32(d.rng) - 24) & 31 // as in Encoder.BitAdaptive
	d.rng <<= uint(shift)
	d.value <<= uint(shift)
	d.count -= shift
	if d.count < 0 {
		d.fill()
	}
	return bit
}

// BitAdaptive decodes a bit against a context probability and adapts it
// identically to the encoder side.
func (d *Decoder) BitAdaptive(p *Prob) int {
	bit := d.Bit(*p)
	*p = p.Adapt(bit)
	return bit
}

// Literal decodes an n-bit value MSB-first.
func (d *Decoder) Literal(n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v = v<<1 | uint32(d.Bit(DefaultProb))
	}
	return v
}

// Err reports whether the decoder has consumed meaningfully past the end
// of the stream (more than the encoder's flush slack).
func (d *Decoder) Err() error {
	if d.overread > 4 {
		return ErrTruncated
	}
	return nil
}

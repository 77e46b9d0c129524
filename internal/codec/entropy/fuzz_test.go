package entropy

import (
	"bytes"
	"testing"

	"vcprof/internal/trace"
)

// boolOp is one fuzz-derived coder operation. The same derivation feeds
// the encoder and the decoder, so any divergence is a genuine
// round-trip break, not a harness artifact.
type boolOp struct {
	kind int // 0 fixed-prob bit, 1 adaptive bit, 2 literal, 3 writer, 4 SetCtx
	bit  int
	p    Prob
	ctx  int
	v    uint32
	n    int
}

// deriveOps maps raw fuzz bytes onto a coder operation sequence: pairs
// of (selector, value) bytes choose between fixed-probability bits
// (covering the full 0–255 probability range, including the degenerate
// endpoints), adaptive bits against eight shared contexts, multi-bit
// literals up to 16 bits, opening (even value) or closing (odd) a
// syntax writer, and retargeting the coder at one of its two contexts
// or at none (value mod 3). The last two code nothing, so the decoder
// skips them.
func deriveOps(data []byte) []boolOp {
	var ops []boolOp
	for i := 0; i+1 < len(data); i += 2 {
		sel, val := data[i], data[i+1]
		switch sel % 5 {
		case 0:
			ops = append(ops, boolOp{kind: 0, bit: int(sel>>7) & 1, p: Prob(val)})
		case 1:
			ops = append(ops, boolOp{kind: 1, bit: int(val) & 1, ctx: int(sel>>2) % 8})
		case 2:
			n := 1 + int(sel>>2)%16
			ops = append(ops, boolOp{kind: 2, v: uint32(val) & (1<<n - 1), n: n})
		case 3:
			ops = append(ops, boolOp{kind: 3, bit: int(val) & 1})
		default:
			ops = append(ops, boolOp{kind: 4, ctx: int(val) % 3})
		}
	}
	return ops
}

// FuzzBoolCoderRoundTrip asserts the range coder's fundamental
// contract: any operation sequence the encoder accepts decodes back to
// exactly the same bits with the same adapted probabilities, and the
// decoder never reads meaningfully past the flushed stream. The
// sequence codes to the same stream, and the same counts on each of
// its contexts, on count-only contexts as on recording ones, however
// its writers and retargets fall: a writer's counts reach the context
// its bits were coded on, at its end, a retarget or Finish.
func FuzzBoolCoderRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x80, 0xFF, 0x01, 0x01, 0x02, 0xAB})
	f.Add([]byte{0x00, 0x00, 0x00, 0xFF, 0x80, 0x00, 0x80, 0xFF})             // prob endpoints both bit values
	f.Add([]byte{0x3E, 0x7F, 0x3D, 0x01, 0x3E, 0x80, 0x05, 0x01})             // long literals + adaptation
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x04, 0x01, 0x01, 0x01, 0x03, 0x01}) // writer, retarget inside it
	f.Add([]byte{0x03, 0x00, 0x3C, 0x80, 0x04, 0x02, 0x02, 0xAB})             // writer open at Finish, on no context
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-input work, not coverage
		}
		ops := deriveOps(data)

		// The stream and the adapted contexts are coded on no context;
		// a pair of count-only and a pair of recording contexts code them
		// again and must agree with it and count the same, pair by pair.
		var encCtx [8]Prob
		encode := func(tcs [2]*trace.Ctx) []byte {
			for i := range encCtx {
				encCtx[i] = DefaultProb
			}
			enc := NewEncoder(tcs[0], 0x9000)
			for _, o := range ops {
				switch o.kind {
				case 0:
					enc.Bit(o.bit, o.p)
				case 1:
					enc.BitAdaptive(o.bit, &encCtx[o.ctx])
				case 2:
					enc.Literal(o.v, o.n)
				case 3:
					if o.bit == 0 {
						enc.Begin()
					} else {
						enc.End()
					}
				default:
					var tc *trace.Ctx
					if o.ctx < len(tcs) {
						tc = tcs[o.ctx]
					}
					enc.SetCtx(tc)
				}
			}
			return enc.Finish()
		}
		count, rec := [2]*trace.Ctx{trace.New(), trace.New()}, [2]*trace.Ctx{trace.New(), trace.New()}
		for _, tc := range rec {
			tc.AttachRecorder(&trace.Recorder{})
		}
		counted, recorded := encode(count), encode(rec)
		stream := encode([2]*trace.Ctx{})
		if !bytes.Equal(counted, stream) || !bytes.Equal(recorded, stream) {
			t.Fatal("the stream depends on the context kind")
		}
		for i := range count {
			if count[i].Mix != rec[i].Mix || count[i].StageCounts() != rec[i].StageCounts() {
				t.Fatalf("context %d: count-only mix %v stages %v, recorded %v %v", i, count[i].Mix, count[i].StageCounts(), rec[i].Mix, rec[i].StageCounts())
			}
		}

		var decCtx [8]Prob
		for i := range decCtx {
			decCtx[i] = DefaultProb
		}
		dec := NewDecoder(stream)
		for i, o := range ops {
			switch o.kind {
			case 0:
				if got := dec.Bit(o.p); got != o.bit {
					t.Fatalf("op %d: fixed-prob bit = %d, want %d (p=%d)", i, got, o.bit, o.p)
				}
			case 1:
				if got := dec.BitAdaptive(&decCtx[o.ctx]); got != o.bit {
					t.Fatalf("op %d: adaptive bit = %d, want %d (ctx %d)", i, got, o.bit, o.ctx)
				}
			case 2:
				if got := dec.Literal(o.n); got != o.v {
					t.Fatalf("op %d: literal = %d, want %d (n=%d)", i, got, o.v, o.n)
				}
			}
		}
		for i := range encCtx {
			if encCtx[i] != decCtx[i] {
				t.Fatalf("context %d diverged: enc %d, dec %d", i, encCtx[i], decCtx[i])
			}
		}
		if err := dec.Err(); err != nil {
			t.Fatalf("decoder overread a complete stream: %v", err)
		}
	})
}

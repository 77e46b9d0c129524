package entropy

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"vcprof/internal/trace"
	"vcprof/internal/trace/tracetest"
)

// NewEncoder returns an encoder reporting instrumentation to tc (which
// may be nil). vbase is the virtual address of the output bitstream
// buffer for cache modeling.
func NewEncoder(tc *trace.Ctx, vbase uint64) *Encoder {
	e := &Encoder{}
	e.Reset(tc, vbase)
	return e
}

func TestRoundTripFixedProb(t *testing.T) {
	bitsIn := []int{1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1}
	e := NewEncoder(nil, 0)
	for _, b := range bitsIn {
		e.Bit(b, 200)
	}
	stream := e.Finish()
	d := NewDecoder(stream)
	for i, want := range bitsIn {
		if got := d.Bit(200); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripAdaptive(t *testing.T) {
	// A biased source: adaptive probabilities must converge and the
	// decoder must track the encoder's adaptation exactly.
	var bitsIn []int
	for i := 0; i < 500; i++ {
		b := 0
		if i%7 == 0 {
			b = 1
		}
		bitsIn = append(bitsIn, b)
	}
	e := NewEncoder(nil, 0)
	pe := DefaultProb
	for _, b := range bitsIn {
		e.BitAdaptive(b, &pe)
	}
	stream := e.Finish()
	d := NewDecoder(stream)
	pd := DefaultProb
	for i, want := range bitsIn {
		if got := d.BitAdaptive(&pd); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if pe != pd {
		t.Errorf("encoder prob %d != decoder prob %d after identical adaptation", pe, pd)
	}
}

func TestRoundTripLiterals(t *testing.T) {
	vals := []struct {
		v uint32
		n int
	}{{0, 1}, {1, 1}, {5, 3}, {255, 8}, {1023, 10}, {0xABCD, 16}}
	e := NewEncoder(nil, 0)
	for _, x := range vals {
		e.Literal(x.v, x.n)
	}
	d := NewDecoder(e.Finish())
	for i, x := range vals {
		if got := d.Literal(x.n); got != x.v {
			t.Fatalf("literal %d = %d, want %d", i, got, x.v)
		}
	}
}

func TestRoundTripRandomQuick(t *testing.T) {
	f := func(data []byte, probSeed uint8) bool {
		if len(data) > 2000 {
			data = data[:2000]
		}
		p := Prob(probSeed)
		if p < 1 {
			p = 1
		}
		e := NewEncoder(nil, 0)
		for _, by := range data {
			for k := 0; k < 8; k++ {
				e.Bit(int(by>>uint(k))&1, p)
			}
		}
		d := NewDecoder(e.Finish())
		for _, by := range data {
			for k := 0; k < 8; k++ {
				if d.Bit(p) != int(by>>uint(k))&1 {
					return false
				}
			}
		}
		return d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCarryPropagation(t *testing.T) {
	// Encoding long runs of 1s at a probability heavily favouring 0
	// forces low-interval additions and eventually carries.
	e := NewEncoder(nil, 0)
	for i := 0; i < 4000; i++ {
		e.Bit(1, 250)
	}
	d := NewDecoder(e.Finish())
	for i := 0; i < 4000; i++ {
		if d.Bit(250) != 1 {
			t.Fatalf("bit %d decoded wrong after carry-heavy stream", i)
		}
	}
}

func TestCompressionBeatsRawForBiasedSource(t *testing.T) {
	// 8000 highly predictable bits must compress far below 1000 bytes.
	e := NewEncoder(nil, 0)
	p := DefaultProb
	for i := 0; i < 8000; i++ {
		e.BitAdaptive(0, &p)
	}
	stream := e.Finish()
	if len(stream) > 200 {
		t.Errorf("biased stream encoded to %d bytes, want strong compression (<200)", len(stream))
	}
	// Incompressible alternating bits should stay near 1 bit/bit.
	e2 := NewEncoder(nil, 0)
	for i := 0; i < 8000; i++ {
		e2.Bit(i&1, DefaultProb)
	}
	if got := len(e2.Finish()); got < 950 {
		t.Errorf("random-ish stream encoded to %d bytes, implausibly small", got)
	}
}

func TestAdaptMovesTowardObservedBit(t *testing.T) {
	p := Prob(128)
	if q := p.Adapt(0); q <= p {
		t.Errorf("Adapt(0) = %d, want > %d", q, p)
	}
	if q := p.Adapt(1); q >= p {
		t.Errorf("Adapt(1) = %d, want < %d", q, p)
	}
	// Saturation: repeated adaptation stays within [1, 255] and keeps
	// round-trip consistency (no wrap to 0).
	p = 255
	for i := 0; i < 100; i++ {
		p = p.Adapt(0)
	}
	if p < 200 {
		t.Errorf("prob collapsed to %d after consistent zeros", p)
	}
	p = 1
	for i := 0; i < 100; i++ {
		p = p.Adapt(1)
	}
	if p > 50 {
		t.Errorf("prob stuck high: %d after consistent ones", p)
	}
}

// encodePinned codes the pinned stream to tc: 1,000 adaptive bits, a
// quarter of them ones, over four contexts, then the 32 flush bits.
func encodePinned(tc *trace.Ctx) []byte {
	e := NewEncoder(tc, 0x9000)
	var probs [4]Prob
	for i := range probs {
		probs[i] = DefaultProb
	}
	x := uint32(1)
	for i := 0; i < 1000; i++ {
		x = x*1664525 + 1013904223
		bit := 0
		if x>>28 < 3 {
			bit = 1
		}
		e.BitAdaptive(bit, &probs[i%4])
	}
	return e.Finish()
}

// TestEncoderInstrumentation pins what a coded bit reports: per bit one
// split branch, one context load, one context store and six scalar ops,
// plus one carry branch and one byte-out store per output byte, all of
// it in the entropy stage — counted alone or fed to a recorder.
func TestEncoderInstrumentation(t *testing.T) {
	const bits, bytes = 1032, 93
	want := trace.Mix{
		trace.OpBranch: bits + bytes,
		trace.OpLoad:   bits,
		trace.OpStore:  bits + bytes,
		trace.OpOther:  6 * bits,
	}
	counted, recorded := trace.New(), trace.New()
	recorded.AttachRecorder(&trace.Recorder{})
	for _, tc := range []*trace.Ctx{counted, recorded} {
		if out := encodePinned(tc); len(out) != bytes {
			t.Fatalf("pinned stream coded to %d bytes, want %d", len(out), bytes)
		}
		if tc.Mix != want {
			t.Errorf("mix %v, want %v", tc.Mix, want)
		}
		var stages trace.StageCounts
		stages[trace.StageEntropy] = want.Total()
		if got := tc.StageCounts(); got != stages || tc.Total() != want.Total() {
			t.Errorf("stages %v and total %d, want %v and %d", got, tc.Total(), stages, want.Total())
		}
	}
	if !slices.Equal(encodePinned(nil), encodePinned(counted)) {
		t.Error("the stream depends on instrumentation")
	}
}

// TestEncoderCountsWhatItRecords: adaptive bits, literals, a stream
// whose every byte carries, a coder moved between contexts by SetCtx,
// and runs of bits inside writers count on a count-only context what
// they record. The writer cases are the spots where an open writer's
// counts could be left behind: a one-bit writer (an all-zero
// coefficient block's coded-block flag) just before a retarget, with
// and without its End, and Finish's 32 flush bits, alone and with a
// writer still open.
func TestEncoderCountsWhatItRecords(t *testing.T) {
	tracetest.CountMatchesRecorded(t, "pinned", trace.StageQuant, encodePinned)
	tracetest.CountMatchesRecorded(t, "literals", trace.StageQuant, func(tc *trace.Ctx) []byte {
		e := NewEncoder(tc, 0x9000)
		for i := 0; i < 300; i++ {
			e.Literal(uint32(i*2654435761), 1+i%32)
		}
		return e.Finish()
	})
	tracetest.CountMatchesRecorded(t, "carries", trace.StageQuant, func(tc *trace.Ctx) []byte {
		e := NewEncoder(tc, 0x9000)
		e.Begin()
		for i := 0; i < 4000; i++ {
			e.Bit(1, 250)
		}
		e.End()
		return e.Finish()
	})
	tracetest.CountMatchesRecorded(t, "retargeted", trace.StageQuant, func(tc *trace.Ctx) []byte {
		e := NewEncoder(nil, 0x9000)
		for i := 0; i < 600; i++ {
			if i%200 == 100 {
				e.SetCtx(tc)
			} else if i%200 == 0 {
				e.SetCtx(nil)
			}
			if i%7 == 0 {
				e.Begin()
			} else if i%7 == 5 {
				e.End()
			}
			e.Bit(i%3&1, Prob(i))
		}
		return e.Finish()
	})
	for _, end := range []bool{true, false} {
		tracetest.CountMatchesRecorded(t, fmt.Sprintf("zero block, retarget, End %v", end), trace.StageQuant, func(tc *trace.Ctx) []byte {
			e := NewEncoder(tc, 0x9000)
			cbf := DefaultProb
			for i := 0; i < 40; i++ {
				e.Begin()
				e.BitAdaptive(0, &cbf)
				if end {
					e.End()
				}
				e.SetCtx(nil)
				e.BitAdaptive(i&1, &cbf)
				e.SetCtx(tc)
			}
			return e.Finish()
		})
	}
	tracetest.CountMatchesRecorded(t, "flush bits only", trace.StageQuant, func(tc *trace.Ctx) []byte {
		return NewEncoder(tc, 0x9000).Finish()
	})
	tracetest.CountMatchesRecorded(t, "flush bits, writer open", trace.StageQuant, func(tc *trace.Ctx) []byte {
		e := NewEncoder(tc, 0x9000)
		e.Begin()
		e.Literal(0xABCDE, 20)
		return e.Finish()
	})
}

// BenchmarkEncoderBit times one adaptive coded bit with no context
// (nil), a count-only context (count) and a recording one (record).
func BenchmarkEncoderBit(b *testing.B) {
	bitsIn := make([]int, 4096)
	x := uint32(7)
	for i := range bitsIn {
		x = x*1664525 + 1013904223
		bitsIn[i] = int(x>>27) & 1
	}
	for _, mode := range []string{"nil", "count", "record"} {
		b.Run(mode, func(b *testing.B) {
			var tc *trace.Ctx
			if mode != "nil" {
				tc = trace.New()
			}
			if mode == "record" {
				tc.AttachRecorder(&trace.Recorder{})
			}
			e := NewEncoder(tc, 0x9000)
			var probs [8]Prob
			for i := range probs {
				probs[i] = DefaultProb
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.BitAdaptive(bitsIn[i%len(bitsIn)], &probs[i%len(probs)])
			}
		})
	}
}

func TestDecoderTruncatedStream(t *testing.T) {
	e := NewEncoder(nil, 0)
	for i := 0; i < 800; i++ {
		e.Bit(i%3&1, 128)
	}
	stream := e.Finish()
	d := NewDecoder(stream[:4])
	for i := 0; i < 800; i++ {
		d.Bit(128)
	}
	if d.Err() == nil {
		t.Error("decoder did not flag overread of truncated stream")
	}
}

func TestFinishIdempotent(t *testing.T) {
	e := NewEncoder(nil, 0)
	e.Bit(1, 128)
	a := e.Finish()
	b := e.Finish()
	if len(a) != len(b) {
		t.Errorf("second Finish changed stream length: %d vs %d", len(a), len(b))
	}
}

// TestResetMatchesNewEncoder codes two streams, a long one and then a
// short one, on one encoder reset in between: each equals what a new
// encoder codes, counts included, and the second reuses the first's
// buffer.
func TestResetMatchesNewEncoder(t *testing.T) {
	code := func(e *Encoder, n int) []byte {
		p := DefaultProb
		e.Begin()
		for i := 0; i < n; i++ {
			e.BitAdaptive(i%5&1, &p)
		}
		e.End()
		e.Literal(uint32(n), 12)
		return e.Finish()
	}
	reused := NewEncoder(trace.New(), 0x1000)
	buf := code(reused, 4000)
	for _, n := range []int{300, 4000} {
		tc, fresh := trace.New(), trace.New()
		reused.Reset(tc, 0x2000)
		got := code(reused, n)
		want := code(NewEncoder(fresh, 0x2000), n)
		if !slices.Equal(got, want) {
			t.Fatalf("%d bits: the reset encoder coded %x, a new one %x", n, got, want)
		}
		if tc.Mix != fresh.Mix {
			t.Fatalf("%d bits: the reset encoder counted %+v, a new one %+v", n, tc.Mix, fresh.Mix)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%d bits: the reset encoder did not code into its own buffer", n)
		}
	}
}

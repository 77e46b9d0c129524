package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"vcprof/internal/trace"
)

// recPair is a kernel and its oracle side by side, each reporting to its
// own recording context. check runs one call on each and fails unless
// both reported the same events: the same tape, Mix and stage counts.
type recPair struct {
	got, want         *trace.Ctx
	gotTape, wantTape *trace.Tape
}

func newRecPair() *recPair {
	g, w := &trace.Recorder{}, &trace.Recorder{}
	p := &recPair{trace.New(), trace.New(), &g.Tape, &w.Tape}
	p.got.AttachRecorder(g)
	p.want.AttachRecorder(w)
	return p
}

func (p *recPair) check(t *testing.T, id string, run func(got, want *trace.Ctx)) {
	t.Helper()
	start := p.gotTape.Total()
	run(p.got, p.want)
	if p.got.Mix != p.want.Mix || p.got.StageCounts() != p.want.StageCounts() {
		t.Fatalf("%s: mix %v stages %v, reference %v %v", id, p.got.Mix, p.got.StageCounts(), p.want.Mix, p.want.StageCounts())
	}
	n := p.gotTape.Total() - start
	if p.wantTape.Total() != p.gotTape.Total() ||
		!slices.Equal(p.gotTape.Window(start, n).MicroOps(), p.wantTape.Window(start, n).MicroOps()) {
		t.Fatalf("%s: the tape differs from the reference's", id)
	}
}

// quantBlocks returns the named n-coefficient inputs of the quantizer
// differential test: transform-range noise, all zero, ±2²⁰ and the
// int32 limits.
func quantBlocks(n int) map[string][]int32 {
	s := uint64(n) * 0x9E3779B97F4A7C15
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	fill := func(f func() int32) []int32 {
		b := make([]int32, n)
		for i := range b {
			b[i] = f()
		}
		return b
	}
	pick := func(vs ...int32) func() int32 {
		return func() int32 { return vs[next()%uint64(len(vs))] }
	}
	return map[string][]int32{
		"zero":   fill(func() int32 { return 0 }),
		"dense":  fill(func() int32 { return int32(next()%8191) - 4095 }),
		"±2^20":  fill(pick(1<<20, -(1 << 20), 1<<20-1, 1-(1<<20))),
		"limits": fill(pick(math.MinInt32, math.MaxInt32, math.MinInt32+1, 0, 1, -1)),
	}
}

// quantPair runs Quantize, then Dequantize of its levels, on the kernel
// and on the reference; with aliased set, each writes over its input.
func quantPair(t *testing.T, p *recPair, id string, coefs []int32, qi int, aliased bool) {
	t.Helper()
	run := func(tc *trace.Ctx, q func(*trace.Ctx, []int32, int, []int32) (int, error), dq func(*trace.Ctx, []int32, int, []int32) error) (levels, rec []int32, nz int) {
		in := slices.Clone(coefs)
		levels, rec = make([]int32, len(in)), make([]int32, len(in))
		if aliased {
			levels, rec = in, in
		}
		nz, err := q(tc, in, qi, levels)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		kept := slices.Clone(levels)
		if err := dq(tc, levels, qi, rec); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return kept, rec, nz
	}
	var gl, gr, wl, wr []int32
	var gnz, wnz int
	p.check(t, id, func(gtc, wtc *trace.Ctx) {
		gl, gr, gnz = run(gtc, Quantize, Dequantize)
		wl, wr, wnz = run(wtc, refQuantize, refDequantize)
	})
	if gnz != wnz || !slices.Equal(gl, wl) || !slices.Equal(gr, wr) {
		t.Fatalf("%s: nonzero %d levels %v rec %v, reference %d %v %v", id, gnz, gl, gr, wnz, wl, wr)
	}
}

// TestQuantMatchesReference is the differential wall for the quantizer
// pair: at every qindex and transform size, levels, the nonzero count,
// dequantized coefficients and every reported event equal the
// per-call StepSize reference's.
func TestQuantMatchesReference(t *testing.T) {
	p := newRecPair()
	for _, n := range []int{16, 64, 256, 1024} {
		for name, coefs := range quantBlocks(n) {
			for qi := 0; qi <= MaxQIndex; qi++ {
				quantPair(t, p, fmt.Sprintf("n=%d/%s/qindex=%d", n, name, qi), coefs, qi, qi%2 == 1)
			}
		}
	}
}

func TestQuantRejectsWhatTheReferenceRejects(t *testing.T) {
	buf := make([]int32, 64)
	for _, c := range []struct {
		qi        int
		in, out   []int32
		rejection string
	}{{-1, buf, buf, "qindex -1"}, {256, buf, buf, "qindex 256"}, {10, buf, buf[:63], "length mismatch"}} {
		p := newRecPair()
		p.check(t, c.rejection, func(gtc, wtc *trace.Ctx) {
			_, gerr := Quantize(gtc, c.in, c.qi, c.out)
			_, werr := refQuantize(wtc, c.in, c.qi, c.out)
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("Quantize, %s: error %v, reference %v", c.rejection, gerr, werr)
			}
			gerr, werr = Dequantize(gtc, c.in, c.qi, c.out), refDequantize(wtc, c.in, c.qi, c.out)
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("Dequantize, %s: error %v, reference %v", c.rejection, gerr, werr)
			}
		})
	}
}

// TestQuantInstrumentation pins what a 64-coefficient quantize and
// dequantize report, as recorded before the per-qindex table: for
// Quantize 9 loads, 9 stores, 17 AVX and 12 scalar ops, the
// coded-flag branch and a three-iteration loop; for Dequantize 9 loads,
// 9 stores, 9 AVX and 6 scalar ops and a three-iteration loop.
func TestQuantInstrumentation(t *testing.T) {
	want := trace.Mix{
		trace.OpLoad:   18,
		trace.OpStore:  18,
		trace.OpAVX:    26,
		trace.OpOther:  18,
		trace.OpBranch: 7,
	}
	coefs := quantBlocks(64)["dense"]
	for _, tc := range []*trace.Ctx{trace.New(), newRecPair().got} {
		levels := make([]int32, 64)
		if _, err := Quantize(tc, coefs, 40, levels); err != nil {
			t.Fatal(err)
		}
		if err := Dequantize(tc, levels, 40, levels); err != nil {
			t.Fatal(err)
		}
		var stages trace.StageCounts
		stages[trace.StageQuant] = want.Total()
		if tc.Mix != want || tc.StageCounts() != stages {
			t.Errorf("mix %v stages %v, want %v %v", tc.Mix, tc.StageCounts(), want, stages)
		}
	}
}

func TestQuantDoesNotAllocate(t *testing.T) {
	tc, coefs, levels := trace.New(), quantBlocks(1024)["dense"], make([]int32, 1024)
	if n := testing.AllocsPerRun(100, func() { _, _ = Quantize(tc, coefs, 100, levels) }); n != 0 {
		t.Errorf("Quantize allocates %v times a call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Dequantize(tc, levels, 100, coefs) }); n != 0 {
		t.Errorf("Dequantize allocates %v times a call", n)
	}
}

// FuzzQuantVsRef: the first byte is the qindex, the second picks the
// size (16, 64, 256 or 1024 coefficients) and whether the buffers
// alias, and every four bytes after them are one little-endian int32
// coefficient (missing ones are zero).
func FuzzQuantVsRef(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{255, 3, 0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x80})
	f.Add([]byte{96, 5, 0x10, 0x00, 0x00, 0x00, 0xf0, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+4*1024 {
			return
		}
		coefs := make([]int32, 16<<(2*(data[1]&3)))
		for i := range coefs {
			if 4*i+6 > len(data) {
				break
			}
			coefs[i] = int32(binary.LittleEndian.Uint32(data[2+4*i:]))
		}
		quantPair(t, newRecPair(), fmt.Sprintf("n=%d/qindex=%d", len(coefs), data[0]), coefs, int(data[0]), data[1]&4 != 0)
	})
}

var nzSink int

// BenchmarkQuantize and BenchmarkDequantize time one block on a
// count-only context, from the table (/N) and through the reference
// (/N/ref).
func BenchmarkQuantize(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		coefs, levels, tc := quantBlocks(n)["dense"], make([]int32, n), trace.New()
		_, _ = Quantize(tc, coefs, 100, levels) // the first Enter grows the context's call stack
		for _, side := range []struct {
			name string
			f    func(*trace.Ctx, []int32, int, []int32) (int, error)
		}{{fmt.Sprint(n), Quantize}, {fmt.Sprintf("%d/ref", n), refQuantize}} {
			b.Run(side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nzSink, _ = side.f(tc, coefs, 100, levels)
				}
			})
		}
	}
}

func BenchmarkDequantize(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		levels, coefs, tc := quantBlocks(n)["dense"], make([]int32, n), trace.New()
		for _, side := range []struct {
			name string
			f    func(*trace.Ctx, []int32, int, []int32) error
		}{{fmt.Sprint(n), Dequantize}, {fmt.Sprintf("%d/ref", n), refDequantize}} {
			b.Run(side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = side.f(tc, levels, 100, coefs)
				}
			})
		}
	}
}

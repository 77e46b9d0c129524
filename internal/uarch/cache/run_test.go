package cache

import (
	"runtime"
	"sync"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/machine"
)

// tinyMachine has a hierarchy small enough that every level evicts
// within a few hundred runs; like the paper machine's, its last level
// has a set count that is not a power of two (24).
func tinyMachine() machine.Machine {
	return machine.Machine{
		L1D:        Config{SizeBytes: 1 << 10, Assoc: 2, LatencyCyc: 4},
		L2:         Config{SizeBytes: 4 << 10, Assoc: 4, LatencyCyc: 12},
		LLC:        Config{SizeBytes: 24 * 5 * LineSize, Assoc: 5, LatencyCyc: 38},
		MemLatency: 90,
	}
}

// unroll issues a run on the reference hierarchy the way trace.Ctx did
// before sinks consumed runs: one SpanAccess per access.
func (h *refHierarchy) unroll(addr uint64, count, stride, size int, store bool) {
	for i := 0; i < count; i++ {
		h.SpanAccess(addr, size, store)
		addr += uint64(stride)
	}
}

// sameHierarchy fails the test unless every level's counters and final
// lines equal the reference's.
func sameHierarchy(t *testing.T, what string, fast *Hierarchy, ref *refHierarchy) {
	t.Helper()
	for _, lv := range []struct {
		name string
		fast *Cache
		ref  *refCache
	}{{"L1", fast.L1, ref.L1}, {"L2", fast.L2, ref.L2}, {"LLC", fast.LLC, ref.LLC}} {
		if lv.fast.Stats() != lv.ref.Stats() {
			t.Fatalf("%s %s: stats %+v, reference %+v", what, lv.name, lv.fast.Stats(), lv.ref.Stats())
		}
		sameLines(t, what+" "+lv.name, lv.fast, lv.ref)
	}
}

// TestRunMatchesUnrolled is the differential wall for run consumption
// and for the O(1) reset together: seeded runs over every stride class
// (zero, sub-line powers of two and odd, exactly a line, beyond a line,
// a frame row, negative), sizes from one byte to line-straddling, loads
// and stores, go through Hierarchy.Run on one hierarchy that is Reset
// between three rounds, and access by access through a reference
// hierarchy built new for each round.
func TestRunMatchesUnrolled(t *testing.T) {
	strides := []int{0, 1, 2, 4, 7, 8, 16, 32, 64, 96, 128, 1936, -1, -8, -24, -64, -200}
	for _, g := range []struct {
		name string
		m    machine.Machine
		runs int
		span uint64
	}{
		{"tiny", tinyMachine(), 4_000, 32 << 10},
		{"xeon", machine.Xeon(), 20_000, 2 << 20},
	} {
		fast, err := NewHierarchy(g.m)
		if err != nil {
			t.Fatal(err)
		}
		s := uint64(0x9E3779B97F4A7C15)
		next := func() uint64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return s
		}
		for round := 0; round < 3; round++ {
			if round > 0 {
				fast.Reset()
			}
			ref, err := newRefHierarchy(g.m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g.runs; i++ {
				r := next()
				addr := 1<<20 + r%g.span
				count := 1 + int(r>>24%40)
				stride := strides[r>>32%uint64(len(strides))]
				size := int(r >> 40 % 49) // 0 is the degenerate size SpanAccess reads as 1
				store := r>>60&1 == 1
				fast.Run(addr, count, stride, size, store)
				ref.unroll(addr, count, stride, size, store)
				if fast.L1.Stats() != ref.L1.Stats() {
					t.Fatalf("%s round %d run %d (%#x ×%d stride %d size %d store %v): L1 %+v, reference %+v",
						g.name, round, i, addr, count, stride, size, store, fast.L1.Stats(), ref.L1.Stats())
				}
			}
			sameHierarchy(t, g.name, fast, ref)
		}
	}
}

// TestTapeMemSizeMatchesLiveSink: a tape keeps an access size the way
// the hierarchy reads one (below 1 is 1), so a hierarchy a window is
// played into ends where one attached live to the same Ctx did. Sizes
// -1 and 0 used to be kept as 255 and 0.
func TestTapeMemSizeMatchesLiveSink(t *testing.T) {
	live, err := NewHierarchy(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	played, err := NewHierarchy(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	c := trace.New()
	rec := &trace.Recorder{}
	c.AttachRecorder(rec)
	c.AttachMemSink(Sink{live})
	pc := trace.Site("t/cache.size")
	for i, size := range []int{-1, 0, 1, 64, 255} {
		// 62 bytes into a line: any size past 2 reaches the next one.
		c.Loads(pc, 1<<20+62+uint64(i)*4096, 9, 64, size)
		c.Stores(pc, 2<<20+62+uint64(i)*4096, 5, -128, size)
	}
	rec.Cut(0, c.Total())
	rec.Ops.Play(nil, Sink{played})
	for _, lv := range []struct {
		name       string
		live, play *Cache
	}{{"L1", live.L1, played.L1}, {"L2", live.L2, played.L2}, {"LLC", live.LLC, played.LLC}} {
		if lv.live.Stats() != lv.play.Stats() {
			t.Errorf("%s: live sink %+v, window played %+v", lv.name, lv.live.Stats(), lv.play.Stats())
		}
	}
	for _, op := range rec.Ops.MicroOps() {
		if op.Size == 0 {
			t.Fatalf("the window holds an access of size 0: %+v", op)
		}
	}
}

// FuzzHierarchyRunVsUnrolled turns bytes into runs on the tiny
// hierarchy — six bytes a run: two of address, count, a signed stride,
// size, and a control byte whose bit 0 stores, whose bit 1 scales the
// stride by 16 (row strides) and whose value 0xFF resets both sides —
// and checks Run against the access-by-access reference.
func FuzzHierarchyRunVsUnrolled(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x38, 0x00, 9, 8, 16, 1, 0x00, 0x01, 3, 0, 70, 0, 0, 0, 0, 0, 0, 0xFF, 0x3C, 0x00, 5, 0xF8, 8, 0})
	tiny := tinyMachine()
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, err := NewHierarchy(tiny)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefHierarchy(tiny)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+5 < len(data); i += 6 {
			ctl := data[i+5]
			if ctl == 0xFF {
				fast.Reset()
				ref.L1.Reset()
				ref.L2.Reset()
				ref.LLC.Reset()
				continue
			}
			addr := 1<<16 + uint64(data[i]) + uint64(data[i+1])<<8
			count, stride, size := int(data[i+2]%64), int(int8(data[i+3])), int(data[i+4]%80)
			if ctl&2 != 0 {
				stride *= 16
			}
			fast.Run(addr, count, stride, size, ctl&1 != 0)
			ref.unroll(addr, count, stride, size, ctl&1 != 0)
		}
		sameHierarchy(t, "fuzz", fast, ref)
	})
}

// xeonIdle reports how many hierarchies the free list holds: it takes
// them all and gives them back in the order they were kept.
func xeonIdle() int {
	x := machine.Xeon()
	key := shape{x.L1D, x.L2, x.LLC, x.MemLatency}
	var held []*Hierarchy
	for h, ok := xeonFree.Take(key); ok; h, ok = xeonFree.Take(key) {
		held = append(held, h)
	}
	for i := len(held) - 1; i >= 0; i-- {
		xeonFree.Give(key, held[i])
	}
	return len(held)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestAcquireXeonIsColdAndBounded: a reused hierarchy comes back cold,
// a hierarchy enters the free list at most once, and the list never
// holds more than GOMAXPROCS.
func TestAcquireXeonIsColdAndBounded(t *testing.T) {
	h, err := Acquire(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	h.Run(0x4000, 100, 8, 8, true)
	h.Release()
	mustPanic(t, "second Release", h.Release)

	again, err := Acquire(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if again != h {
		t.Error("released hierarchy was not reused")
	}
	if again.L1.Stats() != (Stats{}) || again.LLC.Stats() != (Stats{}) || again.L1.Probe(0x4000) || again.LLC.Probe(0x4000) {
		t.Error("reused hierarchy is not cold")
	}
	if lat := again.Access(0x4000, false); lat != machine.Xeon().MemLatency {
		t.Errorf("first access to a reused hierarchy took %d cycles, want DRAM %d", lat, machine.Xeon().MemLatency)
	}
	again.Release()

	fresh, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Release of a hierarchy never acquired", fresh.Release)

	// Another machine's hierarchy is built for the caller and dropped at
	// Release: the free list keeps the paper machine's geometry only.
	idle := xeonIdle()
	other, err := Acquire(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	if other.LLC.Config() != tinyMachine().LLC || xeonIdle() != idle {
		t.Error("Acquire of another machine took a paper-machine hierarchy")
	}
	if lat := other.Access(0x4000, false); lat != tinyMachine().MemLatency {
		t.Errorf("cold access on the tiny machine took %d cycles, want its DRAM %d", lat, tinyMachine().MemLatency)
	}
	other.Release()
	if xeonIdle() != idle {
		t.Error("free list kept a hierarchy that is not the paper machine's")
	}

	bound := runtime.GOMAXPROCS(0)
	held := make([]*Hierarchy, bound+2)
	for i := range held {
		if held[i], err = Acquire(machine.Xeon()); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range held {
		h.Release()
	}
	if n := xeonIdle(); n != bound {
		t.Errorf("free list holds %d hierarchies after %d releases, want the bound %d", n, len(held), bound)
	}
}

// TestAcquireXeonConcurrent hammers the free list from several
// goroutines (under -race in CI): each acquires, runs the same stream
// and must read the counters of a cold hierarchy.
func TestAcquireXeonConcurrent(t *testing.T) {
	stream := func(h *Hierarchy) Stats {
		for i := 0; i < 200; i++ {
			h.Run(uint64(i)*4160, 16, 8, 8, i%3 == 0)
		}
		return h.L1.Stats()
	}
	cold, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	want := stream(cold)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h, err := Acquire(machine.Xeon())
				if err != nil {
					t.Error(err)
					return
				}
				if got := stream(h); got != want {
					t.Errorf("acquired hierarchy counted %+v, a new one %+v", got, want)
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
}

// TestAccessAndRunDoNotAllocate: the per-access paths of the live cache
// allocate nothing once the cache and the hierarchy exist.
func TestAccessAndRunDoNotAllocate(t *testing.T) {
	c := small(t)
	h, err := NewHierarchy(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	var addr uint64
	if n := testing.AllocsPerRun(1000, func() {
		addr += 4160
		c.Access(addr, addr&LineSize != 0)
		h.Run(addr, 16, 72, 8, addr&LineSize == 0)
		h.SpanAccess(addr+8, 120, false)
	}); n != 0 {
		t.Fatalf("Access/Run/SpanAccess allocate %v allocs/op, want 0", n)
	}
}

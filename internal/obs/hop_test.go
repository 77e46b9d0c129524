package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestHopLogNilIsDisabled(t *testing.T) {
	var l *HopLog
	l.Emit(HopEvent{Trace: "j-x", Kind: HopExec}) // must not panic
	if got := l.Slice("j-x"); got != nil {
		t.Fatalf("nil log Slice = %v, want nil", got)
	}
	if got := l.Proc(); got != "" {
		t.Fatalf("nil log Proc = %q, want empty", got)
	}
}

func TestHopLogEmitAndSlice(t *testing.T) {
	l := NewHopLog("s0", 4)
	l.Emit(HopEvent{Trace: "j-a", Kind: HopAdmitted})
	l.Emit(HopEvent{Trace: "j-a", Kind: HopExec, Arg: "deadbeef", Dur: 42})
	l.Emit(HopEvent{Kind: HopExec}) // no trace: dropped
	l.Emit(HopEvent{Trace: "j-a"})  // no kind: dropped
	l.Emit(HopEvent{Trace: "j-a", Kind: HopExec, Start: 99, Proc: "spoof"})

	evs := l.Slice("j-a")
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(evs), evs)
	}
	for _, ev := range evs {
		if ev.Proc != "s0" {
			t.Errorf("event proc = %q, want stamped %q", ev.Proc, "s0")
		}
		if ev.Start != 0 {
			t.Errorf("event start = %d, want 0 (merge-time field)", ev.Start)
		}
	}
	// Slice returns a copy: mutating it must not corrupt the log.
	evs[0].Kind = "mutated"
	if l.Slice("j-a")[0].Kind != HopAdmitted {
		t.Fatal("Slice aliases the log's backing array")
	}
}

func TestHopLogEvictsOldestTrace(t *testing.T) {
	l := NewHopLog("s0", 2)
	l.Emit(HopEvent{Trace: "j-1", Kind: HopExec})
	l.Emit(HopEvent{Trace: "j-2", Kind: HopExec})
	l.Emit(HopEvent{Trace: "j-3", Kind: HopExec})
	if got := l.Slice("j-1"); got != nil {
		t.Fatalf("oldest trace survived eviction: %v", got)
	}
	if l.Slice("j-2") == nil || l.Slice("j-3") == nil {
		t.Fatal("recent traces evicted")
	}
}

func TestTraceIDs(t *testing.T) {
	key := "0123456789abcdef0123456789abcdef"
	if got := JobTraceID(key); got != "j-0123456789abcdef" {
		t.Errorf("JobTraceID = %q", got)
	}
	if got := SessionTraceID(key); got != "s-0123456789abcdef" {
		t.Errorf("SessionTraceID = %q", got)
	}
	for id, want := range map[string]bool{
		"j-0123456789abcdef":    true,
		"s-ab.c_d":              true,
		"":                      false,
		"UPPER":                 false,
		"has space":             false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
	} {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestMergeHopsDedupsReplays pins the tentpole invariant: the same
// content-addressed work observed by several processes (shard, gate
// mirror, failover replay) collapses to one deterministic hop, and the
// merged deterministic view is independent of slice order and of which
// subset of witnesses survived.
func TestMergeHopsDedupsReplays(t *testing.T) {
	exec := HopEvent{Trace: "j-a", Kind: HopExec, Arg: "deadbeef", Dur: 100}
	adm := HopEvent{Trace: "j-a", Kind: HopAdmitted}
	gop0 := HopEvent{Trace: "s-a", Kind: HopGOP, Seq: 0, Arg: "d0", Dur: 10}
	gop1 := HopEvent{Trace: "s-a", Kind: HopGOP, Seq: 1, Arg: "d1", Dur: 20}

	stamp := func(ev HopEvent, proc string) HopEvent {
		ev.Proc = proc
		return ev
	}
	shard := []HopEvent{stamp(adm, "s0"), stamp(exec, "s0"), stamp(gop0, "s0"), stamp(gop1, "s0")}
	gate := []HopEvent{stamp(adm, "gate"), stamp(exec, "gate"), stamp(gop0, "gate"), stamp(gop1, "gate")}
	replay := []HopEvent{stamp(gop1, "s1")} // failover re-encode of the last GOP

	merged := MergeHops([][]HopEvent{shard, gate, replay}, false)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4 deduped: %+v", len(merged), merged)
	}
	for _, ev := range merged {
		if ev.Proc != "" || ev.StartMS != 0 {
			t.Errorf("det hop kept placement fields: %+v", ev)
		}
	}
	// Per-kind lanes carry cumulative virtual clocks.
	if merged[2].Kind != HopGOP || merged[2].Start != 0 {
		t.Errorf("gop0 start = %d, want 0 (%+v)", merged[2].Start, merged[2])
	}
	if merged[3].Kind != HopGOP || merged[3].Start != 11 {
		t.Errorf("gop1 start = %d, want 11 = dur0+1 (%+v)", merged[3].Start, merged[3])
	}

	// Any permutation, any surviving subset with full content coverage:
	// identical bytes.
	want := renderHops(t, merged)
	for _, slices := range [][][]HopEvent{
		{gate, shard, replay},
		{replay, gate, shard},
		{gate, {stamp(gop0, "s1")}}, // shard killed; gate mirror covers
	} {
		if got := renderHops(t, MergeHops(slices, false)); got != want {
			t.Errorf("merge not byte-stable:\n got %q\nwant %q", got, want)
		}
	}
}

func TestMergeHopsVolatileView(t *testing.T) {
	route := HopEvent{Trace: "j-a", Kind: HopRoute, Arg: "s0", Proc: "gate", StartMS: 1000}
	hedge := HopEvent{Trace: "j-a", Kind: HopHedgeFired, Arg: "s1", Proc: "gate", StartMS: 1500}
	wait := HopEvent{Trace: "j-a", Kind: HopQueueWait, Dur: 3, Proc: "s0", StartMS: 1200}
	exec := HopEvent{Trace: "j-a", Kind: HopExec, Arg: "k", Dur: 5, Proc: "s0"}

	merged := MergeHops([][]HopEvent{{route, hedge}, {wait, exec}}, true)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4: %+v", len(merged), merged)
	}
	// Deterministic events lead; volatile follow in wall order, rebased
	// to the earliest stamp.
	if merged[0].Kind != HopExec {
		t.Fatalf("det hop not first: %+v", merged)
	}
	wantOrder := []string{HopRoute, HopQueueWait, HopHedgeFired}
	wantStart := []uint64{0, 200, 500}
	for i, ev := range merged[1:] {
		if ev.Kind != wantOrder[i] || ev.Start != wantStart[i] {
			t.Errorf("volatile[%d] = %s@%d, want %s@%d", i, ev.Kind, ev.Start, wantOrder[i], wantStart[i])
		}
		if ev.Proc == "" {
			t.Errorf("volatile hop lost its proc: %+v", ev)
		}
	}

	// The deterministic view excludes every volatile hop.
	if det := MergeHops([][]HopEvent{{route, hedge}, {wait, exec}}, false); len(det) != 1 {
		t.Fatalf("det view has %d events, want 1: %+v", len(det), det)
	}
}

func TestHopVolatileUnknownKind(t *testing.T) {
	if !HopVolatile("some-future-kind") {
		t.Fatal("unknown kinds must default to volatile, never into byte-pinned merges")
	}
}

func TestWriteHopTraceShape(t *testing.T) {
	events := MergeHops([][]HopEvent{{
		{Trace: "j-a", Kind: HopAdmitted, Proc: "s0"},
		{Trace: "j-a", Kind: HopExec, Arg: "k", Dur: 7, Proc: "s0"},
		{Trace: "j-a", Kind: HopRoute, Arg: "s0", Proc: "gate", StartMS: 5},
	}}, true)
	out := renderHops(t, events)
	for _, want := range []string{
		`"name":"thread_name"`, `"name":"admitted#0"`, `"name":"exec#0"`,
		`"name":"route#0"`, `"pid":1`, `"pid":2`, `"displayTimeUnit":"ns"`,
		`"trace":"j-a"`, `"proc":"gate"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"proc":"s0"`) {
		t.Errorf("deterministic hop leaked proc label:\n%s", out)
	}
}

func renderHops(t *testing.T, events []HopEvent) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteHopTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// BenchmarkHopEmit measures the enabled hop-log hot path: one volatile
// event appended to an existing trace under the log's lock.
func BenchmarkHopEmit(b *testing.B) {
	l := NewHopLog("s0", 4)
	ev := HopEvent{Trace: "j-bench", Kind: HopQueueWait, Dur: 3, StartMS: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(ev)
	}
}

// BenchmarkHopEmitDisabled pins the nil-log cost: serving builds that
// never enable tracing must pay only a nil check per hop site.
func BenchmarkHopEmitDisabled(b *testing.B) {
	var l *HopLog
	ev := HopEvent{Trace: "j-bench", Kind: HopQueueWait, Dur: 3, StartMS: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(ev)
	}
}

// BenchmarkMergeHops measures the gate-side merge of a replicated
// session's slices: 3 witnesses x 64 GOP hops deduped and laid out.
func BenchmarkMergeHops(b *testing.B) {
	var slices [][]HopEvent
	for w := 0; w < 3; w++ {
		var s []HopEvent
		s = append(s, HopEvent{Trace: "s-bench", Kind: HopSessionOpen, Arg: "k", Proc: "s0"})
		for g := 0; g < 64; g++ {
			s = append(s, HopEvent{
				Trace: "s-bench", Kind: HopGOP, Seq: uint64(g),
				Arg: "digest", Dur: uint64(1000 + g), Proc: "s0",
			})
		}
		slices = append(slices, s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := MergeHops(slices, false); len(got) != 65 {
			b.Fatalf("merged %d events, want 65", len(got))
		}
	}
}

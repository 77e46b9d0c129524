package cbp

import (
	"runtime"
	"strings"
	"testing"

	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
)

// synthTrace builds a branch trace with a mix of biased and patterned
// branches, with total instruction window n*4.
// Run replays one trace through one predictor (which is Reset first).
func Run(p bpred.Predictor, tr Trace) (Score, error) {
	if err := tr.validate(); err != nil {
		return Score{}, err
	}
	p.Reset()
	return replay(p, tr), nil
}

func synthTrace(name string, n int) Trace {
	ops := make([]trace.MicroOp, n)
	for i := range ops {
		var pc trace.PC
		var taken bool
		switch i % 3 {
		case 0: // biased branch
			pc = 0x400000
			taken = i%10 != 0
		case 1: // loop-like
			pc = 0x400100
			taken = i%8 != 7
		default: // patterned
			pc = trace.PC(0x400200 + (i%16)*16)
			taken = (i/3)%4 < 2
		}
		ops[i] = trace.MicroOp{PC: pc, Class: trace.OpBranch, Taken: taken}
	}
	return Trace{Name: name, Branches: ops, Instructions: uint64(n) * 20}
}

func TestRunScoresPredictor(t *testing.T) {
	p, err := bpred.NewByName("tage-64KB")
	if err != nil {
		t.Fatal(err)
	}
	tr := synthTrace("synthetic", 30000)
	s, err := Run(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.Branches != 30000 {
		t.Errorf("branches = %d", s.Branches)
	}
	if s.MissRate <= 0 || s.MissRate > 0.5 {
		t.Errorf("miss rate %v out of plausible range", s.MissRate)
	}
	if s.MPKI <= 0 {
		t.Error("MPKI should be positive")
	}
	// MPKI must equal mispredicts scaled by the window.
	want := float64(s.Mispredicts) / (float64(tr.Instructions) / 1000)
	if s.MPKI != want {
		t.Errorf("MPKI = %v, want %v", s.MPKI, want)
	}
}

func TestChampionshipOrdering(t *testing.T) {
	tr := synthTrace("synthetic", 60000)
	scores, err := Championship(bpred.PaperSet(), []Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("got %d scores, want 4", len(scores))
	}
	byName := map[string]Score{}
	for _, s := range scores {
		byName[s.Predictor] = s
	}
	// The paper's headline result: larger predictors beat smaller ones of
	// the same family, and TAGE beats Gshare at comparable budgets.
	if byName["gshare-32KB"].MPKI > byName["gshare-2KB"].MPKI {
		t.Errorf("gshare-32KB (%v) worse than gshare-2KB (%v)",
			byName["gshare-32KB"].MPKI, byName["gshare-2KB"].MPKI)
	}
	if byName["tage-64KB"].MPKI > byName["tage-8KB"].MPKI {
		t.Errorf("tage-64KB (%v) worse than tage-8KB (%v)",
			byName["tage-64KB"].MPKI, byName["tage-8KB"].MPKI)
	}
	if byName["tage-8KB"].MPKI > byName["gshare-2KB"].MPKI {
		t.Errorf("tage-8KB (%v) worse than gshare-2KB (%v)",
			byName["tage-8KB"].MPKI, byName["gshare-2KB"].MPKI)
	}
}

// TestChampionshipEqualsSoloRuns: sharing one TAGE between tage-N and
// tage-l-N is invisible. For the full zoo, the zoo reversed (hybrids
// first), a hybrid without its plain TAGE, a hybrid with the other
// geometry's, and a name given twice, over two different traces,
// every score and its position equal Run on a fresh predictor, one
// name and one trace at a time.
func TestChampionshipEqualsSoloRuns(t *testing.T) {
	zoo := bpred.Names()
	reversed := make([]string, len(zoo))
	for i, name := range zoo {
		reversed[len(zoo)-1-i] = name
	}
	second := synthTrace("second", 9000)
	for i := range second.Branches {
		second.Branches[i].PC += trace.PC(i % 5 * 64)
	}
	traces := []Trace{synthTrace("first", 20000), second}
	for _, names := range [][]string{
		zoo,
		reversed,
		{"tage-l-8KB", "gshare-2KB"},
		{"tage-64KB", "tage-l-8KB"},
		{"tage-8KB", "tage-l-8KB", "tage-8KB", "tage-l-8KB"},
	} {
		got, err := Championship(names, traces)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(names)*len(traces) {
			t.Fatalf("%v: %d scores, want %d", names, len(got), len(names)*len(traces))
		}
		for i, name := range names {
			for k, tr := range traces {
				p, err := bpred.NewByName(name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(p, tr)
				if err != nil {
					t.Fatal(err)
				}
				if s := got[i*len(traces)+k]; s != want {
					t.Errorf("%v: score %d = %+v, solo run %+v", names, i*len(traces)+k, s, want)
				}
			}
		}
	}
}

// TestWarmChampionshipAllocatesNoTable: a championship borrows its
// predictors, so once one has run, the next over all nine names
// allocates its scores and bookkeeping (under 1 KB) and no predictor
// table: the smallest, gshare-2KB's, is 8 KB.
func TestWarmChampionshipAllocatesNoTable(t *testing.T) {
	traces := []Trace{synthTrace("warm", 4000)}
	zoo := bpred.Names()
	if _, err := Championship(zoo, traces); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Championship(zoo, traces)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<10 {
		t.Errorf("a warm championship of %d predictors allocated %d bytes, want at most 1 KB", len(zoo), grew)
	}
}

func TestChampionshipErrors(t *testing.T) {
	tr := synthTrace("x", 100)
	if _, err := Championship([]string{"bogus"}, []Trace{tr}); err == nil {
		t.Error("accepted unknown predictor")
	}
	p, _ := bpred.NewByName("gshare-2KB")
	if _, err := Run(p, Trace{Name: "empty"}); err == nil {
		t.Error("accepted empty trace")
	}
	if _, err := Run(p, Trace{Name: "nowin", Branches: tr.Branches}); err == nil {
		t.Error("accepted zero instruction window")
	}
	bad := Trace{Name: "bad", Branches: []trace.MicroOp{{Class: trace.OpLoad}}, Instructions: 10}
	if _, err := Run(p, bad); err == nil {
		t.Error("accepted non-branch ops")
	}
}

func TestFromRecorder(t *testing.T) {
	tc := trace.New()
	rec := &trace.Recorder{}
	tc.AttachRecorder(rec)
	for i := 0; i < 300; i++ {
		tc.Op(trace.OpAVX, 2)
		tc.Branch(trace.Site("cbp/test"), i%2 == 0)
	}
	rec.Cut(1, 600)
	tr, err := FromRecorder("w", rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Branches) != 200 || tr.Instructions != 600 {
		t.Fatalf("window [1, 601): %d branches of %d instructions, want 200 of 600", len(tr.Branches), tr.Instructions)
	}
	for i, b := range tr.Branches {
		if want := (trace.MicroOp{PC: trace.Site("cbp/test"), Class: trace.OpBranch, Taken: i%2 == 0}); b != want {
			t.Fatalf("branch %d = %+v, want %+v", i, b, want)
		}
	}
	if _, err := FromRecorder("nil", nil); err == nil {
		t.Error("accepted nil recorder")
	}
	if _, err := FromRecorder("e", &trace.Recorder{}); err == nil {
		t.Error("accepted branchless window")
	}
}

func TestTableRendering(t *testing.T) {
	tr := synthTrace("clipA", 5000)
	scores, err := Championship([]string{"gshare-2KB", "tage-8KB"}, []Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	txt, err := Table(scores, "mpki")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "clipA") || !strings.Contains(txt, "tage-8KB") {
		t.Errorf("table missing headers:\n%s", txt)
	}
	if _, err := Table(scores, "nonsense"); err == nil {
		t.Error("accepted unknown metric")
	}
	if _, err := Table(nil, "mpki"); err == nil {
		t.Error("accepted empty scores")
	}
	txt, err = Table(scores, "missrate")
	if err != nil || !strings.Contains(txt, "clipA") {
		t.Errorf("missrate table failed: %v", err)
	}
}

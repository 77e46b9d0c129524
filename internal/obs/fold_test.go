package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"vcprof/internal/obs"
)

// TestFoldedProfileExact pins the attribution rule on a hand-built
// tree: exclusive ticks (inclusive minus children) land on the
// semicolon-joined ancestor chain, gaps between spans are attributed
// to nothing.
func TestFoldedProfileExact(t *testing.T) {
	nA, nB := obs.Name("foldA"), obs.Name("foldB")
	sess := obs.NewSession()
	tr := sess.Lane("main")
	a := tr.Begin(nA)
	tr.Advance(5)
	b := tr.Begin(nB)
	tr.Advance(3)
	b.End()
	tr.Advance(2)
	a.End()
	tr.Advance(4) // outside any span: attributed nowhere

	lines := obs.FoldedProfile(sess)
	want := []obs.FoldedLine{{Stack: "foldA", Ticks: 7}, {Stack: "foldA;foldB", Ticks: 3}}
	if len(lines) != len(want) {
		t.Fatalf("lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: %v, want %v", i, lines[i], want[i])
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteFolded(&buf, lines); err != nil {
		t.Fatal(err)
	}
	if got, wantText := buf.String(), "foldA 7\nfoldA;foldB 3\n"; got != wantText {
		t.Errorf("folded text %q, want %q", got, wantText)
	}
}

// treeGen grows a random span tree on one lane and returns the ticks
// covered by root spans (the total the folded output must conserve).
func treeGen(tr *obs.Trace, rng *splitmixState, names []obs.NameID, depth int) uint64 {
	sp := tr.Begin(names[rng.next()%uint64(len(names))])
	start := tr.Now()
	tr.Advance(rng.next() % 50) // exclusive prefix
	if depth > 0 {
		for n := rng.next() % 4; n > 0; n-- {
			treeGen(tr, rng, names, depth-1)
		}
	}
	tr.Advance(rng.next() % 50) // exclusive suffix
	end := tr.Now()
	sp.End()
	return end - start
}

// TestFoldedProfileProperties is the fold invariants under randomized
// span trees (deterministic splitmix seeds, per the detflow randomness rule):
//
//   - conservation: folded ticks sum exactly to the ticks covered by
//     root spans — nothing is dropped, nothing counted twice;
//   - parent dominance: a span's inclusive time covers the sum of its
//     children, so every exclusive attribution is non-negative (an
//     underflow would explode the uint64 sum and break conservation)
//     and every profile row has Excl <= Incl;
//   - output shape: lines strictly sorted by stack, no zero-tick rows,
//     stacks well-formed (no empty frames);
//   - determinism: regenerating from the same seed folds to identical
//     bytes.
func TestFoldedProfileProperties(t *testing.T) {
	names := []obs.NameID{obs.Name("p0"), obs.Name("p1"), obs.Name("p2"), obs.Name("p3")}
	build := func(seed uint64) (*obs.Session, uint64) {
		rng := splitmixState(seed)
		sess := obs.NewSession()
		var covered uint64
		for _, lane := range []string{"laneA", "laneB", "laneC"} {
			tr := sess.Lane(lane)
			for i := uint64(0); i < 1+rng.next()%3; i++ {
				covered += treeGen(tr, &rng, names, 3)
				tr.Advance(rng.next() % 10) // inter-root gap
			}
		}
		return sess, covered
	}
	for seed := uint64(1); seed <= 8; seed++ {
		sess, covered := build(seed)
		lines := obs.FoldedProfile(sess)
		var total uint64
		for i, l := range lines {
			if l.Ticks == 0 {
				t.Fatalf("seed %d: zero-tick line %q", seed, l.Stack)
			}
			if strings.Contains(l.Stack, ";;") || strings.HasPrefix(l.Stack, ";") || strings.HasSuffix(l.Stack, ";") {
				t.Fatalf("seed %d: malformed stack %q", seed, l.Stack)
			}
			if i > 0 && lines[i-1].Stack >= l.Stack {
				t.Fatalf("seed %d: lines not strictly sorted at %d", seed, i)
			}
			total += l.Ticks
		}
		if total != covered {
			t.Fatalf("seed %d: folded ticks %d, root spans cover %d", seed, total, covered)
		}
		for _, row := range obs.ProfileOf(sess) {
			if row.Excl > row.Incl {
				t.Fatalf("seed %d: %s exclusive %d exceeds inclusive %d", seed, row.Name, row.Excl, row.Incl)
			}
		}
		// Same seed, fresh tree: byte-identical fold.
		sess2, _ := build(seed)
		var b1, b2 bytes.Buffer
		if err := obs.WriteFolded(&b1, lines); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteFolded(&b2, obs.FoldedProfile(sess2)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("seed %d: fold not deterministic", seed)
		}
	}
}

// TestFoldedProfileMergesSessions pins cross-session aggregation:
// identical chains from different sessions add up.
func TestFoldedProfileMergesSessions(t *testing.T) {
	n := obs.Name("merged")
	mk := func(ticks uint64) *obs.Session {
		s := obs.NewSession()
		tr := s.Lane("w")
		sp := tr.Begin(n)
		tr.Advance(ticks)
		sp.End()
		return s
	}
	lines := obs.FoldedProfile(mk(3), mk(9))
	if len(lines) != 1 || lines[0].Ticks != 12 || lines[0].Stack != "merged" {
		t.Fatalf("merged fold = %v, want [{merged 12}]", lines)
	}
}

package obs

import (
	"strings"
	"testing"
)

// Now returns the current virtual tick.
func (t *Trace) Now() uint64 {
	if t == nil {
		return 0
	}
	return t.now
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	tr := NewTrace()
	a, b, c := Name("a"), Name("b"), Name("c")
	sa := tr.Begin(a)
	tr.Advance(5)
	sb := tr.Begin(b)
	tr.Advance(7)
	sb.End()
	sc := tr.BeginArg(c, "leaf")
	tr.Advance(3)
	sc.End()
	sa.End()

	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	spans := tr.spans
	if spans[0].name != a || spans[0].start != 0 || spans[0].dur != 15 || spans[0].parent != -1 {
		t.Errorf("root span = %+v, want name=a start=0 dur=15 parent=-1", spans[0])
	}
	if spans[1].name != b || spans[1].start != 5 || spans[1].dur != 7 || spans[1].parent != 0 {
		t.Errorf("child b = %+v, want start=5 dur=7 parent=0", spans[1])
	}
	if spans[2].start != 12 || spans[2].dur != 3 || spans[2].parent != 0 || spans[2].arg != "leaf" {
		t.Errorf("child c = %+v, want start=12 dur=3 parent=0 arg=leaf", spans[2])
	}
	if tr.Now() != 15 {
		t.Errorf("Now = %d, want 15", tr.Now())
	}
}

func TestSpanImplicitClose(t *testing.T) {
	tr := NewTrace()
	outer := tr.Begin(Name("outer"))
	tr.Begin(Name("inner")) // never explicitly ended
	tr.Advance(4)
	outer.End() // must close inner too
	if len(tr.open) != 0 {
		t.Fatalf("open stack not drained: %d", len(tr.open))
	}
	if tr.spans[1].dur != 4 {
		t.Errorf("implicitly closed span dur = %d, want 4", tr.spans[1].dur)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Begin(Name("x"))
	tr.Advance(10)
	sp.End()
	if tr.Now() != 0 || tr.SpanCount() != 0 || tr.Enabled() {
		t.Fatal("nil Trace must be inert")
	}
	var sess *Session
	if ln := sess.Lane("x"); ln != nil {
		t.Fatal("nil Session.Lane must return nil Trace")
	}
}

func TestCounterDomains(t *testing.T) {
	Reset()
	det := NewCounter("test.det")
	vol := NewVolatileCounter("test.vol")
	det.Add(3)
	vol.Max(7)
	vol.Max(5) // must not lower the peak
	if det.Value() != 3 || vol.Value() != 7 {
		t.Fatalf("values = %d/%d, want 3/7", det.Value(), vol.Value())
	}
	for _, cv := range Counters(false) {
		if cv.Name == "test.vol" {
			t.Fatal("volatile counter leaked into deterministic snapshot")
		}
	}
	found := false
	for _, cv := range Counters(true) {
		if cv.Name == "test.vol" && cv.Volatile {
			found = true
		}
	}
	if !found {
		t.Fatal("volatile counter missing from full snapshot")
	}
	if same := NewCounter("test.det"); same != det {
		t.Fatal("NewCounter must be idempotent per name")
	}
	Reset()
	if det.Value() != 0 {
		t.Fatal("Reset must zero values")
	}
}

func TestRenderCountersSections(t *testing.T) {
	Reset()
	NewCounter("test.render.det").Add(1)
	NewVolatileCounter("test.render.vol").Add(2)
	out := RenderCounters(false)
	if strings.Contains(out, "test.render.vol") || strings.Contains(out, "volatile") {
		t.Errorf("deterministic render leaked volatile section:\n%s", out)
	}
	full := RenderCounters(true)
	if !strings.Contains(full, "test.render.vol") || !strings.Contains(full, "volatile") {
		t.Errorf("full render missing volatile section:\n%s", full)
	}
	Reset()
}

func TestChromeTraceShapeAndDeterminism(t *testing.T) {
	Reset()
	NewCounter("test.chrome.events").Add(42)
	build := func() string {
		sess := NewSession()
		tr := sess.Lane(`lane "one"`)
		sp := tr.BeginArg(Name("work"), "cell(a b\tc)")
		tr.Advance(9)
		sp.End()
		var b strings.Builder
		if err := WriteChromeTrace(&b, sess); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, two := build(), build()
	if one != two {
		t.Fatal("identical sessions must serialize byte-identically")
	}
	for _, want := range []string{
		`{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"lane \"one\""}}`,
		`{"ph":"X","pid":1,"tid":1,"ts":0,"dur":9,"name":"work","args":{"arg":"cell(a b\tc)"}}`,
		`"name":"test.chrome.events","args":{"value":42}`,
		`"displayTimeUnit"`,
	} {
		if !strings.Contains(one, want) {
			t.Errorf("trace JSON missing %q in:\n%s", want, one)
		}
	}
	Reset()
}

func TestProfileInclusiveExclusive(t *testing.T) {
	sess := NewSession()
	tr := sess.Lane("l")
	root := tr.Begin(Name("prof.root"))
	tr.Advance(10)
	kid := tr.Begin(Name("prof.kid"))
	tr.Advance(30)
	kid.End()
	root.End()
	rows := sess.Profile()
	byName := map[string]ProfileRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	r := byName["prof.root"]
	if r.Incl != 40 || r.Excl != 10 || r.Count != 1 {
		t.Errorf("root row = %+v, want incl=40 excl=10 count=1", r)
	}
	k := byName["prof.kid"]
	if k.Incl != 30 || k.Excl != 30 {
		t.Errorf("kid row = %+v, want incl=excl=30", k)
	}
	if rows[0].Name != "prof.root" {
		t.Errorf("rows not sorted by inclusive ticks: %+v", rows)
	}
	out := RenderProfile(rows, 1)
	if !strings.Contains(out, "prof.root") || strings.Contains(out, "prof.kid") {
		t.Errorf("topN truncation wrong:\n%s", out)
	}
}

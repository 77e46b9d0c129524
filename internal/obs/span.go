package obs

// Trace records a hierarchy of spans on one goroutine against a virtual
// clock. A nil *Trace is the disabled tracer: every method is a no-op
// with no allocation, so instrumentation sites never need their own
// enable checks. A non-nil Trace is NOT safe for concurrent use; each
// goroutine (or each deterministic assembly pass) gets its own, usually
// via Session.Lane.
type Trace struct {
	now   uint64
	spans []spanRec
	open  []int32
}

// spanRec is one recorded span. parent indexes spans (-1 for roots);
// records are append-only, so recording order is a valid topological
// order and — because assembly passes are sequential — deterministic.
type spanRec struct {
	name   NameID
	arg    string
	start  uint64
	dur    uint64
	parent int32
}

// Span is a handle to an open span. The zero Span (from a nil Trace)
// is valid and End on it is a no-op.
type Span struct {
	t   *Trace
	idx int32
}

// NewTrace returns an enabled tracer starting at tick 0.
func NewTrace() *Trace { return &Trace{} }

// Advance moves the virtual clock forward by a modeled quantity
// (instructions, simulated cycles, recorded micro-ops — never host
// time).
func (t *Trace) Advance(ticks uint64) {
	if t == nil {
		return
	}
	t.now += ticks
}

// Begin opens a span at the current tick, nested under the innermost
// open span.
func (t *Trace) Begin(name NameID) Span {
	return t.BeginArg(name, "")
}

// BeginArg opens a span carrying a free-form argument (shown in the
// Chrome trace's args panel). Callers on possibly-disabled paths should
// not build arg strings eagerly; check Enabled first or pass "".
func (t *Trace) BeginArg(name NameID, arg string) Span {
	if t == nil {
		return Span{}
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, arg: arg, start: t.now, parent: parent})
	t.open = append(t.open, idx)
	return Span{t: t, idx: idx}
}

// Enabled reports whether the tracer records anything. Use it to skip
// building expensive span arguments on disabled paths.
func (t *Trace) Enabled() bool { return t != nil }

// End closes the span at the current tick. Spans opened after s and
// not yet ended are closed implicitly (truncated at the same tick), so
// a missed End cannot corrupt the hierarchy.
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		r := &t.spans[top]
		r.dur = t.now - r.start
		if top == s.idx {
			return
		}
	}
}

// SpanCount reports the number of recorded spans (closed or open).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

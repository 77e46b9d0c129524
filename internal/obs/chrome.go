package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChromeTrace serializes the session as Chrome trace-event JSON
// (the chrome://tracing / Perfetto "JSON Array Format"): one complete
// ("X") event per span, one metadata event naming each lane, and one
// counter ("C") event per deterministic registry counter. Virtual
// ticks map 1:1 onto the format's microsecond field — absolute units
// are modeled quantities, not time, which is exactly what the viewer's
// relative widths should show.
//
// The serialization is hand-built and fully ordered (lanes in creation
// order, spans in recording order, counters sorted by name), so equal
// observed runs produce byte-identical files. Volatile counters are
// excluded, and so are zero-valued ones: the registry is process-global
// and accretes counters from every linked package, and a counter the
// run never touched is noise in the viewer and a golden-file dependency
// on the link set. One event per line keeps goldens reviewable in a
// diff.
func WriteChromeTrace(w io.Writer, s *Session) error {
	tw := newTraceWriter(w)
	for i, ln := range s.snapshot() {
		tid := i + 1
		tw.lane(1, tid, ln.name)
		for _, r := range ln.tr.spans {
			b := tw.span(1, tid, r.start, r.dur, nameString(r.name))
			if r.arg != "" {
				b = append(b, `,"args":{"arg":`...)
				b = appendJSONString(b, r.arg)
				b = append(b, '}')
			}
			tw.emit(append(b, '}'))
		}
	}
	for _, c := range Counters(false) {
		if c.Value == 0 {
			continue
		}
		b := tw.event('C', 1, 0)
		b = append(b, `,"ts":0,"name":`...)
		b = appendJSONString(b, c.Name)
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendUint(b, c.Value, 10)
		tw.emit(append(b, `}}`...))
	}
	return tw.close()
}

// traceWriter writes the Chrome trace-event JSON both WriteChromeTrace
// and WriteHopTrace produce: one event per line, reusing one buffer.
type traceWriter struct {
	bw    *bufio.Writer
	buf   []byte
	first bool
}

func newTraceWriter(w io.Writer) *traceWriter {
	tw := &traceWriter{bw: bufio.NewWriter(w), first: true}
	tw.bw.WriteString("{\"traceEvents\":[\n")
	return tw
}

// event starts an event of phase ph on lane (pid, tid); the caller
// appends the rest and hands the line to emit.
func (tw *traceWriter) event(ph byte, pid, tid int) []byte {
	b := append(tw.buf[:0], `{"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// lane emits the metadata ("M") event naming lane (pid, tid).
func (tw *traceWriter) lane(pid, tid int, name string) {
	b := tw.event('M', pid, tid)
	b = append(b, `,"name":"thread_name","args":{"name":`...)
	b = appendJSONString(b, name)
	tw.emit(append(b, `}}`...))
}

// span starts a complete ("X") event; the caller appends its args and
// the closing brace, then emits it.
func (tw *traceWriter) span(pid, tid int, ts, dur uint64, name string) []byte {
	b := tw.event('X', pid, tid)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendUint(b, dur, 10)
	b = append(b, `,"name":`...)
	return appendJSONString(b, name)
}

// emit writes one finished event and keeps its buffer for the next.
func (tw *traceWriter) emit(line []byte) {
	if !tw.first {
		tw.bw.WriteString(",\n")
	}
	tw.first = false
	tw.bw.Write(line)
	tw.buf = line
}

func (tw *traceWriter) close() error {
	tw.bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return tw.bw.Flush()
}

// appendJSONString appends s as a JSON string literal. Covers the
// escapes our span names and cell keys can contain; any other control
// byte gets a \u escape.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c >= 0x20:
			buf = append(buf, c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(buf, '"')
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one bench-side interval around a call into a layer. parent
// indexes the same lane's slice (-1 = root); op groups the spans of
// one request.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since tracer start
	End    time.Duration
}

// tracer keeps spans in memory, one lane per client goroutine so the
// hot path takes no lock, and writes them out once at exit. A nil
// *tracer is tracing off: begin/end are no-ops, which is what the
// end-to-end runs use.
type tracer struct {
	t0    time.Time
	lanes [][]span
}

func newTracer(lanes int) *tracer {
	return &tracer{t0: time.Now(), lanes: make([][]span, lanes)}
}

// begin opens a span on a lane and returns its handle.
func (t *tracer) begin(lane int, name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.lanes[lane] = append(t.lanes[lane], span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0)})
	return len(t.lanes[lane]) - 1
}

func (t *tracer) end(lane, h int) {
	if t == nil || h < 0 {
		return
	}
	t.lanes[lane][h].End = time.Since(t.t0)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the part of that interval its direct children cover (the
// union, so overlapping children are not subtracted twice).
func selfTimes(lanes [][]span) []selfRow {
	byName := map[string]*selfRow{}
	for _, lane := range lanes {
		kids := make([][]int, len(lane))
		for i, s := range lane {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], i)
			}
		}
		for i, s := range lane {
			r := byName[s.Name]
			if r == nil {
				r = &selfRow{Name: s.Name}
				byName[s.Name] = r
			}
			dur := s.End - s.Start
			r.Count++
			r.Total += dur
			r.Self += dur - coverage(lane, kids[i], s.Start, s.End)
		}
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// coverage is the length of the union of the child intervals, clipped
// to [lo, hi].
func coverage(lane []span, kids []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := lane[k].Start, lane[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	end = lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// totalOf returns the summed duration and count of spans by name.
func totalOf(lanes [][]span, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, lane := range lanes {
		for _, s := range lane {
			if s.Name == name {
				d += s.End - s.Start
				n++
			}
		}
	}
	return d, n
}

func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

// writeChromeTrace renders the spans as Chrome trace-event JSON
// (complete "X" events, one tid per lane).
func writeChromeTrace(w io.Writer, lanes [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := []event{}
	for tid, lane := range lanes {
		for i, s := range lane {
			events = append(events, event{
				Name: s.Name, Ph: "X",
				TS: us(s.Start), Dur: us(s.End - s.Start),
				PID: 1, TID: tid,
				Args: map[string]int{"op": s.Op, "id": i, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

package telemetry

import (
	"sync"
)

// Gauge is one sampled instantaneous quantity. Sample must be cheap
// and safe to call from the sampler goroutine (atomic loads, mutexed
// counters) — it runs outside the ring lock.
type Gauge struct {
	Name   string
	Sample func() float64
}

// Series is a fixed-capacity ring buffer of gauge snapshot rows, the
// daemon's in-memory time-series store. One coarse ticker appends a
// row per tick; readers copy windows out under the same single mutex.
// The lock covers only row copy-in/copy-out — gauge evaluation happens
// outside it — so the cost to the serving path is a few microseconds
// per tick regardless of scrape traffic.
type Series struct {
	gauges []Gauge

	mu    sync.Mutex
	times []int64     // unix milliseconds, parallel to rows
	rows  [][]float64 // rows[i][g] = gauge g at sample i
	next  int         // ring cursor
	count int         // rows filled, <= cap(rows)
}

// NewSeries builds a store holding the last capacity samples of the
// given gauges.
func NewSeries(capacity int, gauges []Gauge) *Series {
	if capacity <= 0 {
		capacity = 1
	}
	gs := make([]Gauge, len(gauges))
	copy(gs, gauges)
	return &Series{
		gauges: gs,
		times:  make([]int64, capacity),
		rows:   make([][]float64, capacity),
	}
}

// Sample evaluates every gauge and appends one row stamped unixMS,
// overwriting the oldest row once the ring is full.
func (s *Series) Sample(unixMS int64) {
	if s == nil {
		return
	}
	row := make([]float64, len(s.gauges))
	for i, g := range s.gauges {
		row[i] = g.Sample()
	}
	s.mu.Lock()
	s.times[s.next] = unixMS
	s.rows[s.next] = row
	s.next = (s.next + 1) % len(s.rows)
	if s.count < len(s.rows) {
		s.count++
	}
	s.mu.Unlock()
}

// Window is a copied-out slice of the series, oldest sample first.
type Window struct {
	Names   []string    `json:"names"`
	TimesMS []int64     `json:"times_ms"`
	Samples [][]float64 `json:"samples"`
}

// Window returns the most recent n samples (all of them when n <= 0),
// oldest first. The returned rows are copies; callers own them.
func (s *Series) Window(n int) Window {
	if s == nil {
		return Window{}
	}
	w := Window{Names: make([]string, len(s.gauges))}
	for i, g := range s.gauges {
		w.Names[i] = g.Name
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > s.count {
		n = s.count
	}
	w.TimesMS = make([]int64, 0, n)
	w.Samples = make([][]float64, 0, n)
	start := s.next - n
	if start < 0 {
		start += len(s.rows)
	}
	for i := 0; i < n; i++ {
		idx := (start + i) % len(s.rows)
		w.TimesMS = append(w.TimesMS, s.times[idx])
		row := make([]float64, len(s.rows[idx]))
		copy(row, s.rows[idx])
		w.Samples = append(w.Samples, row)
	}
	return w
}

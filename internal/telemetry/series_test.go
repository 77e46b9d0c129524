package telemetry

import (
	"sync"
	"testing"
)

// counterGauge returns a gauge whose samples count up 1, 2, 3, … so a
// row's values identify exactly which Sample call produced it.
func counterGauge(name string) (Gauge, *int) {
	n := new(int)
	return Gauge{Name: name, Sample: func() float64 { *n++; return float64(*n) }}, n
}

// TestSeriesWindowBasics pins ordering and copy-out semantics before
// the ring wraps.
func TestSeriesWindowBasics(t *testing.T) {
	g, _ := counterGauge("g")
	s := NewSeries(4, []Gauge{g})
	if n := len(s.Window(0).TimesMS); n != 0 {
		t.Fatalf("fresh series holds %d samples", n)
	}
	for i := int64(1); i <= 3; i++ {
		s.Sample(i * 100)
	}
	w := s.Window(0)
	if len(w.Names) != 1 || w.Names[0] != "g" {
		t.Fatalf("names %v", w.Names)
	}
	wantT := []int64{100, 200, 300}
	if len(w.TimesMS) != 3 {
		t.Fatalf("times %v, want %v", w.TimesMS, wantT)
	}
	for i := range wantT {
		if w.TimesMS[i] != wantT[i] {
			t.Errorf("time %d = %d, want %d", i, w.TimesMS[i], wantT[i])
		}
		if w.Samples[i][0] != float64(i+1) {
			t.Errorf("sample %d = %v, want %d", i, w.Samples[i][0], i+1)
		}
	}
	// Mutating the returned window must not touch the ring.
	w.Samples[0][0] = -1
	if s.Window(0).Samples[0][0] == -1 {
		t.Fatal("window aliases ring storage")
	}
}

// TestSeriesRingWraparound is the overwrite contract: a capacity-4
// ring fed 6 samples retains exactly the last 4, oldest first, and a
// partial window returns the most recent n.
func TestSeriesRingWraparound(t *testing.T) {
	g, _ := counterGauge("g")
	s := NewSeries(4, []Gauge{g})
	for i := int64(1); i <= 6; i++ {
		s.Sample(i * 10)
	}
	if n := len(s.Window(0).TimesMS); n != 4 {
		t.Fatalf("len %d, want 4", n)
	}
	w := s.Window(0)
	wantT := []int64{30, 40, 50, 60}
	for i := range wantT {
		if w.TimesMS[i] != wantT[i] {
			t.Fatalf("wrapped times %v, want %v", w.TimesMS, wantT)
		}
		if w.Samples[i][0] != float64(i+3) {
			t.Fatalf("wrapped samples %v", w.Samples)
		}
	}
	w2 := s.Window(2)
	if len(w2.TimesMS) != 2 || w2.TimesMS[0] != 50 || w2.TimesMS[1] != 60 {
		t.Fatalf("window(2) times %v, want [50 60]", w2.TimesMS)
	}
	// Asking for more than retained returns what exists.
	if got := len(s.Window(100).TimesMS); got != 4 {
		t.Fatalf("window(100) returned %d rows, want 4", got)
	}
}

// TestSeriesNilAndEmpty pins the disabled store and the degenerate
// capacity.
func TestSeriesNilAndEmpty(t *testing.T) {
	var s *Series
	s.Sample(1)
	if len(s.Window(0).TimesMS) != 0 {
		t.Fatal("nil series reported samples")
	}
	one := NewSeries(0, nil) // capacity clamps to 1
	one.Sample(7)
	one.Sample(8)
	if w := one.Window(0); len(w.TimesMS) != 1 || w.TimesMS[0] != 8 {
		t.Fatalf("capacity-0 series window %v", w)
	}
}

// TestSeriesConcurrent hammers Sample against Window under -race;
// every window must be rectangular and time-ordered.
func TestSeriesConcurrent(t *testing.T) {
	g, _ := counterGauge("g")
	s := NewSeries(8, []Gauge{g})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := s.Window(0)
			for i, row := range w.Samples {
				if len(row) != len(w.Names) {
					t.Error("ragged window row")
					return
				}
				if i > 0 && w.TimesMS[i] < w.TimesMS[i-1] {
					t.Error("window times not ordered")
					return
				}
			}
		}
	}()
	for i := int64(1); i <= 2000; i++ {
		s.Sample(i)
	}
	close(stop)
	readers.Wait()
}

package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles tailRule chooses from, per mille.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailRule returns the highest ladder percentile that leaves at least
// ten samples beyond it: with fewer, the "tail" is one or two
// observations and moves with each of them. n < 20 supports only the
// median.
func tailRule(n int) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// tailOf is the latency tail a sample supports: the tailRule
// percentile, capped at p95, of sorted values.
func tailOf(sorted []float64) float64 {
	p := tailRule(len(sorted))
	if p > 0.95 {
		p = 0.95
	}
	return percentile(sorted, p)
}

// midBand estimates the median of sorted values as the mean of the
// order statistics between the 40th and 60th percentiles. On a grid
// whose op costs cluster (three cheap families, two AV1 ones) the
// single middle order statistic sits in the gap between clusters and
// jumps ~20% with arrival order; the band moves half as much. With
// fewer than ten values it is the plain median.
func midBand(sorted []float64) float64 {
	n := len(sorted)
	lo, hi := n*2/5, (n*3+4)/5
	if n < 10 || hi <= lo {
		return percentile(sorted, 0.5)
	}
	var s float64
	for _, v := range sorted[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}

// percentile returns the p-quantile of sorted values by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the benchmark contract's spread check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is the median/quartile digest of repeated runs of one
// metric; Values keeps every run so -compare can tell "every run
// better" from "medians moved inside the noise".
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, Values: v}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

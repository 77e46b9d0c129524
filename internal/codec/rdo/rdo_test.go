package rdo

import (
	"testing"
	"testing/quick"
)

func TestLambdaGrowsQuadratically(t *testing.T) {
	l1, err := Lambda(4)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Lambda(8)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := l2 / l1; ratio < 3.9 || ratio > 4.1 {
		t.Errorf("lambda ratio for doubled step = %v, want 4", ratio)
	}
	if _, err := Lambda(0); err == nil {
		t.Error("Lambda(0) accepted")
	}
	if _, err := Lambda(-1); err == nil {
		t.Error("Lambda(-1) accepted")
	}
}

func TestBitsEstimate(t *testing.T) {
	if got := BitsEstimate(make([]int32, 64)); got != 1 {
		t.Errorf("all-zero block = %d bits, want 1 (coded-block flag)", got)
	}
	small := BitsEstimate([]int32{1, 0, 0, 0})
	big := BitsEstimate([]int32{100, -50, 25, -12})
	if small >= big {
		t.Errorf("sparse small levels (%d bits) not cheaper than dense large levels (%d bits)", small, big)
	}
	// Sign symmetry.
	if BitsEstimate([]int32{7, 0, -3}) != BitsEstimate([]int32{-7, 0, 3}) {
		t.Error("BitsEstimate not symmetric in sign")
	}
}

func TestBitsEstimateMonotoneInMagnitude(t *testing.T) {
	f := func(v int32) bool {
		if v < 0 {
			v = -v
		}
		v = v%10000 + 1
		a := BitsEstimate([]int32{v})
		b := BitsEstimate([]int32{v * 2})
		return b >= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCost(t *testing.T) {
	if got := Cost(100, 10, 2.0); got != 120 {
		t.Errorf("Cost = %d, want 120", got)
	}
	if got := Cost(100, 10, 0); got != 100 {
		t.Errorf("zero-lambda cost = %d, want pure distortion", got)
	}
}

package transform

import (
	"fmt"
	"math"
	"sync"

	"vcprof/internal/trace"
)

// The transforms this package shipped before the allocation-free
// rewrite, moved here verbatim (identifiers prefixed, nothing else
// changed) as the oracle of the differential tests: a heap scratch per
// call, one int→float conversion per multiply-add, a strided column
// pass. They build their own DCT matrices. One thing did change since:
// every product is wrapped in an explicit float64 conversion, the
// spec's rounding point, so the oracle cannot be compiled to fused
// multiply-adds either (see kernel.RowsTimes) and means the same thing on
// every GOARCH.

// refDCTTables caches orthonormal DCT-II matrices per size.
var refDCTTables sync.Map // int -> *refDCTTable

type refDCTTable struct {
	n  int
	m  []float64 // row-major N×N forward matrix
	mt []float64 // transpose
}

func refTableFor(n int) *refDCTTable {
	if t, ok := refDCTTables.Load(n); ok {
		return t.(*refDCTTable)
	}
	t := &refDCTTable{n: n, m: make([]float64, n*n), mt: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for x := 0; x < n; x++ {
			v := c * math.Cos(math.Pi*float64(2*x+1)*float64(k)/float64(2*n))
			t.m[k*n+x] = v
			t.mt[x*n+k] = v
		}
	}
	actual, _ := refDCTTables.LoadOrStore(n, t)
	return actual.(*refDCTTable)
}

// refForward applies the N×N orthonormal DCT-II to the residual block src
// (row-major) and writes rounded coefficients to dst. src and dst must
// hold n*n values and may alias.
func refForward(tc *trace.Ctx, src []int32, n int, dst []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	if err := validSize(n); err != nil {
		return err
	}
	t := refTableFor(n)
	tmp := make([]float64, n*n)
	// Row pass: tmp = src · Mᵀ.
	for r := 0; r < n; r++ {
		for k := 0; k < n; k++ {
			var acc float64
			row := t.m[k*n:]
			for x := 0; x < n; x++ {
				acc += float64(float64(src[r*n+x]) * row[x])
			}
			tmp[r*n+k] = acc
		}
	}
	reportPass(tc, pcFwdRow[sizeIdx(n)], n)
	// Column pass: dst = M · tmp.
	for c := 0; c < n; c++ {
		for k := 0; k < n; k++ {
			var acc float64
			for y := 0; y < n; y++ {
				acc += float64(t.m[k*n+y] * tmp[y*n+c])
			}
			dst[k*n+c] = int32(math.Round(acc))
		}
	}
	reportPass(tc, pcFwdCol[sizeIdx(n)], n)
	return nil
}

// refInverse applies the inverse transform of refForward. src and dst must
// hold n*n values and may alias.
func refInverse(tc *trace.Ctx, src []int32, n int, dst []int32) error {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	if err := validSize(n); err != nil {
		return err
	}
	t := refTableFor(n)
	tmp := make([]float64, n*n)
	// Column pass: tmp = Mᵀ · src.
	for c := 0; c < n; c++ {
		for y := 0; y < n; y++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += float64(t.mt[y*n+k] * float64(src[k*n+c]))
			}
			tmp[y*n+c] = acc
		}
	}
	reportPass(tc, pcInvCol[sizeIdx(n)], n)
	// Row pass: dst = tmp · M.
	for r := 0; r < n; r++ {
		for x := 0; x < n; x++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += float64(tmp[r*n+k] * t.mt[x*n+k])
			}
			dst[r*n+x] = int32(math.Round(acc))
		}
	}
	reportPass(tc, pcInvRow[sizeIdx(n)], n)
	return nil
}

// refSATD is SATD as it shipped before the straight-line rewrite, moved
// here verbatim (identifiers prefixed): each 4×4 tile is copied out of
// the residual and transformed by eight calls of a strided butterfly.
// It is the oracle of the SATD differential tests.
func refSATD(tc *trace.Ctx, res []int32, w, h int) (int32, error) {
	defer tc.EndStage(tc.BeginStage(trace.StageTransform))
	if w%4 != 0 || h%4 != 0 || w <= 0 || h <= 0 {
		return 0, fmt.Errorf("transform: SATD size %dx%d not a positive multiple of 4", w, h)
	}
	tc.Enter(fnSATD)
	defer tc.Leave()
	var total int32
	var tile [16]int32
	for y := 0; y < h; y += 4 {
		for x := 0; x < w; x += 4 {
			for j := 0; j < 4; j++ {
				copy(tile[j*4:j*4+4], res[(y+j)*w+x:(y+j)*w+x+4])
			}
			total += refSatd4x4(tc, tile[:])
		}
		tc.Loop(pcSATDLoop, w/4)
	}
	return total, nil
}

// refHadamard4 applies an in-place 4-point Walsh–Hadamard butterfly to
// v[0..3] with the given stride.
func refHadamard4(v []int32, i0, stride int) {
	a := v[i0]
	b := v[i0+stride]
	c := v[i0+2*stride]
	d := v[i0+3*stride]
	s0, s1 := a+c, a-c
	s2, s3 := b+d, b-d
	v[i0] = s0 + s2
	v[i0+stride] = s1 + s3
	v[i0+2*stride] = s0 - s2
	v[i0+3*stride] = s1 - s3
}

func refSatd4x4(tc *trace.Ctx, res []int32) int32 {
	var t [16]int32
	copy(t[:], res[:16])
	for r := 0; r < 4; r++ {
		refHadamard4(t[:], r*4, 1)
	}
	for c := 0; c < 4; c++ {
		refHadamard4(t[:], c, 4)
	}
	var sum int32
	for _, v := range t {
		if v < 0 {
			v = -v
		}
		sum += v
	}
	tc.Loads(pcSATDLoop, trace.ScratchBase+0x5000, 4, 8, 8)
	tc.Op(trace.OpAVX, 8) // 4x4 tiles batched through 8-wide butterflies
	tc.Op(trace.OpSSE, 1) // transpose fix-up
	tc.Op(trace.OpOther, 2)
	return sum / 2
}

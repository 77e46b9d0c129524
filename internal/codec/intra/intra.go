// Package intra implements the spatial prediction modes shared by the
// encoder models: DC, horizontal, vertical, and a planar/smooth mode,
// predicting a block from its reconstructed top and left neighbours.
package intra

import (
	"fmt"

	"vcprof/internal/trace"
)

// Mode is an intra prediction mode.
type Mode uint8

// Prediction modes, a compact subset of each codec family's set. Encoder
// models choose how many of these (and how many synthetic "angular"
// refinements) to evaluate, which is one of the search-space knobs.
const (
	DC Mode = iota
	Vertical
	Horizontal
	Planar
	NumModes
)

// Neighbors holds the reconstructed border samples for prediction: Top
// has n samples (above row), Left has n samples (left column). Missing
// borders (frame edges) are flagged; predictors fall back to 128.
type Neighbors struct {
	Top     []byte
	Left    []byte
	HasTop  bool
	HasLeft bool
}

var (
	pcPredRow = trace.Site("intra.Predict/rowloop")
	fnPredict = trace.Func("intra.Predict")
)

// Predict fills dst (n×n, row-major) with the prediction for the given
// mode from the neighbours.
func Predict(tc *trace.Ctx, mode Mode, nb Neighbors, n int, dst []byte) error {
	defer tc.EndStage(tc.BeginStage(trace.StageIntra))
	if n <= 0 || len(dst) < n*n {
		return fmt.Errorf("intra: invalid block size %d for dst of %d samples", n, len(dst))
	}
	if nb.HasTop && len(nb.Top) < n {
		return fmt.Errorf("intra: top border has %d samples, need %d", len(nb.Top), n)
	}
	if nb.HasLeft && len(nb.Left) < n {
		return fmt.Errorf("intra: left border has %d samples, need %d", len(nb.Left), n)
	}
	tc.Enter(fnPredict)
	defer tc.Leave()
	switch mode {
	case DC:
		var sum, cnt int
		if nb.HasTop {
			for i := 0; i < n; i++ {
				sum += int(nb.Top[i])
			}
			cnt += n
		}
		if nb.HasLeft {
			for i := 0; i < n; i++ {
				sum += int(nb.Left[i])
			}
			cnt += n
		}
		v := byte(128)
		if cnt > 0 {
			v = byte((sum + cnt/2) / cnt)
		}
		for i := 0; i < n*n; i++ {
			dst[i] = v
		}
		tc.Op(trace.OpAVX, n*n/16+n/8+2)
	case Vertical:
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if nb.HasTop {
					dst[y*n+x] = nb.Top[x]
				} else {
					dst[y*n+x] = 128
				}
			}
		}
		tc.Op(trace.OpAVX, n*n/16+1)
	case Horizontal:
		for y := 0; y < n; y++ {
			v := byte(128)
			if nb.HasLeft {
				v = nb.Left[y]
			}
			for x := 0; x < n; x++ {
				dst[y*n+x] = v
			}
		}
		tc.Op(trace.OpAVX, n*n/16+1)
	case Planar:
		// Bilinear blend of the borders, the smooth predictor family.
		for y := 0; y < n; y++ {
			l := 128
			if nb.HasLeft {
				l = int(nb.Left[y])
			}
			for x := 0; x < n; x++ {
				tp := 128
				if nb.HasTop {
					tp = int(nb.Top[x])
				}
				wx := x + 1
				wy := y + 1
				dst[y*n+x] = byte((tp*wy + l*wx + (wx+wy)/2) / (wx + wy))
			}
		}
		tc.Op(trace.OpAVX, n*n/8+2)
	default:
		if IsAngular(mode) {
			if err := validAngular(mode); err != nil {
				return err
			}
			return predictAngular(tc, mode, nb, n, dst)
		}
		return fmt.Errorf("intra: unknown mode %d", mode)
	}
	tc.Loop(pcPredRow, n)
	return nil
}

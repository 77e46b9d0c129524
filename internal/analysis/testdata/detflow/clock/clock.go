// Package clock is vclint's fixture for detflow's clock scope: the
// package path opts into the cell-assembly paths, so wall-clock reads
// here are flagged although no deterministic root reaches them.
package clock

import "time"

// AssembleCell stands in for a cell-assembly path.
func AssembleCell() float64 {
	start := time.Now() // want `detflow: wall-clock time\.Now in deterministic code`
	work()
	return time.Since(start).Seconds() // want `detflow: wall-clock time\.Since in deterministic code`
}

// Remaining stands in for a table-rendering path.
func Remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `detflow: wall-clock time\.Until in deterministic code`
}

// Epoch is fine: time.Unix is pure arithmetic, not a clock read.
func Epoch() time.Time {
	return time.Unix(0, 0)
}

func work() {}

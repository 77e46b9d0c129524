// engine.go pins the function-level suppression of an unreached clock
// read: a //lint:ignore directly above a progress/timing function's
// declaration silences every wall-clock read inside it (the finding's
// one-hop chain is the enclosing function), while sibling functions in
// the same file stay checked.
package clock

import "time"

// Progress is sanctioned wall-clock accounting; the directive covers
// both reads in its body.
//
//lint:ignore detflow progress reporting only, values never feed table cells
func Progress() time.Duration {
	t0 := time.Now()
	work()
	return time.Since(t0)
}

// Unjustified proves the suppression above is function-grained: same
// file, no directive, still flagged.
func Unjustified() time.Duration {
	t0 := time.Now() // want `detflow: wall-clock time\.Now`
	work()
	return time.Since(t0) // want `detflow: wall-clock time\.Since`
}

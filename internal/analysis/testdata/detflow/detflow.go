// Package detflow is vclint's fixture for the whole-program
// determinism-taint analyzer. By fixture convention, functions named
// DetRoot* in a testdata/detflow package are taint roots, and the
// package opts into detflow's sink scope automatically, so the tree
// exercises the exact analyzer instance cmd/vclint ships.
package detflow

import (
	"os"
	"time"

	"vcprof/internal/analysis/testdata/detflow/inner"
)

// DetRootCell is a deterministic root: everything it can reach must be
// volatile-free. The leaks below are one hop down (step), two hops down
// across a package boundary (inner.Frame → inner tick), and in a
// host-env helper; the directive-carrying narrate is exempt.
func DetRootCell() float64 {
	v := step()
	v += inner.Frame(3)
	v += float64(len(hostName()))
	narrate()
	return v
}

// step leaks wall-clock one call below the root.
func step() float64 {
	t0 := time.Now() // want `detflow: wall-clock time\.Now reachable from deterministic root detflow\.DetRootCell \(2 hops\)`
	work()
	return float64(t0.Nanosecond())
}

// hostName leaks a host-environment read: reported once, with its
// reachability claim.
func hostName() string {
	return os.Getenv("HOST") // want `detflow: host-dependent os\.Getenv reachable from deterministic root detflow\.DetRootCell`
}

// narrate owns wall-clock legitimately (progress narration); the
// function-level directive suppresses the reachable findings inside it
// and ONLY it — chain-aware, not file-wide.
//
//lint:ignore detflow progress narration only, never feeds result bytes
func narrate() {
	t0 := time.Now()
	_ = time.Since(t0)
}

// DetRootMerge spawns a goroutine whose unsynchronized captured write
// makes the merged result schedule-dependent.
func DetRootMerge() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total = 42 // want `detflow: goroutine-captured write to total`
		close(done)
	}()
	<-done
	return total
}

// DetRootTable renders from a map in randomized order: reported once,
// with root reachability.
func DetRootTable(m map[string]int) []string {
	var keys []string
	for k := range m { // want `detflow: map iteration over m appends to a slice in randomized order .* reachable from deterministic root`
		keys = append(keys, k)
	}
	return keys
}

// orphan is volatile but unreachable from any root: no finding, since
// this package is outside the clock scope (testdata/detflow/clock).
func orphan() time.Time { return time.Now() }

func work() {}

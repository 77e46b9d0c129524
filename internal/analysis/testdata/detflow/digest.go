// digest.go extends the detflow fixture with the fold-digest
// shape: obs.FoldDigest is a deterministic root (its value is what
// every cross-topology equivalence test compares), so a fold helper
// that reaches wall-clock anywhere down the chain must be reported
// with the full root→sink path. The clean fold pins the negative.
package detflow

import "time"

// DetRootFold mirrors obs.FoldDigest: fold per-job digests in
// index order into one value. The taint reaches the leak two hops
// down, through the per-item helper.
func DetRootFold(perJob [][]byte) string {
	out := ""
	for _, d := range perJob {
		out += foldOne(d)
	}
	return out
}

// foldOne stamps empty digests with wall-clock — the volatile sink.
func foldOne(d []byte) string {
	if len(d) == 0 {
		return stampEmpty()
	}
	return string(d)
}

func stampEmpty() string {
	return time.Now().String() // want `detflow: wall-clock time\.Now reachable from deterministic root detflow\.DetRootFold \(3 hops\)`
}

// DetRootFoldClean is the deterministic counterpart: pure
// concatenation in index order, nothing volatile reachable, silent.
func DetRootFoldClean(perJob [][]byte) string {
	out := ""
	for _, d := range perJob {
		out += string(d)
	}
	return out
}

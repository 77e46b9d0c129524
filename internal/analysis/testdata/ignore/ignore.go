// Package ignorefix exercises //lint:ignore suppression in both
// placements (line above, same line): every violation below carries a
// reasoned directive, so vclint must report nothing here.
package ignorefix

import "math/rand"

// Roll uses the suppressed randomness source.
func Roll() int {
	//lint:ignore detflow suppression fixture: exercises the directive on the line above a finding
	return rand.Intn(6)
}

// Dump iterates a map into a slice; suppressed on the same line.
func Dump(m map[string]int) []string {
	var out []string
	for k := range m { //lint:ignore detflow suppression fixture: consumer treats the result as a set
		out = append(out, k)
	}
	return out
}

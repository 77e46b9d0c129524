// Package rand is vclint's fixture for detflow's randomness sources:
// every use of crypto/rand or math/rand is a finding, in any package.
package rand

import (
	crand "crypto/rand"
	"math/rand"
)

// Roll mixes both banned sources.
func Roll() int {
	var b [1]byte
	if _, err := crand.Read(b[:]); err != nil { // want `detflow: randomness crypto/rand\.Read`
		return 0
	}
	return rand.Intn(6) + int(b[0]) // want `detflow: randomness math/rand\.Intn`
}

//go:build !race

package cluster

// See race_on_test.go.
const raceEnabled = false

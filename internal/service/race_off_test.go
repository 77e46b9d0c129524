//go:build !race

package service

// See race_on_test.go.
const raceEnabled = false

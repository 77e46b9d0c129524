//go:build race

package cluster

// raceEnabled reports whether this test binary was built with the race
// detector, under which the waiter wall's wake-up budgets are an order
// of magnitude looser.
const raceEnabled = true

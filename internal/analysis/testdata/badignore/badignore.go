// Package badignore holds a malformed suppression directive (analyzer
// name but no reason) and one naming an analyzer vclint does not ship:
// vclint must report each directive itself rather than silently
// suppressing nothing.
package badignore

//lint:ignore detflow
var x = 1

//lint:ignore detflwo a typo suppresses nothing
var y = 2

// Use keeps x and y referenced.
func Use() int { return x + y }

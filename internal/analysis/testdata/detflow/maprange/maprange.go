// Package maprange is vclint's fixture for detflow's map-order source:
// map iterations with order-dependent effects are flagged in any
// package, commutative or sorted-afterwards iterations are not.
package maprange

import (
	"fmt"
	"sort"
	"strings"
)

// BadAppend collects keys in randomized order and never sorts them.
func BadAppend(rows map[string]int) []string {
	var out []string
	for name := range rows { // want `detflow: .*appends to a slice in randomized order`
		out = append(out, name)
	}
	return out
}

// BadWrite renders output directly from map order.
func BadWrite(rows map[string]int, b *strings.Builder) {
	for name, v := range rows { // want `detflow: .*ordered output via fmt\.Fprintf`
		fmt.Fprintf(b, "%s=%d\n", name, v)
	}
}

// BadSink streams into a builder method.
func BadSink(rows map[string]int, b *strings.Builder) {
	for name := range rows { // want `detflow: .*ordered output via .*Builder.*WriteString`
		b.WriteString(name)
	}
}

type table struct{ rows []string }

// BadFieldAppend appends into a struct field, where the later-sort
// heuristic cannot apply.
func BadFieldAppend(rows map[string]int, t *table) {
	for name := range rows { // want `detflow: .*appends to a struct field`
		t.rows = append(t.rows, name)
	}
}

// GoodSorted collects keys and sorts them afterwards: canonical order
// is restored, so no finding.
func GoodSorted(rows map[string]int) []string {
	keys := make([]string, 0, len(rows))
	for name := range rows {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}

// GoodCommutative merges counters; iteration order cannot matter.
func GoodCommutative(dst, src map[string]int) {
	for name, v := range src {
		dst[name] += v
	}
}

// GoodSlice ranges over a slice, which is ordered by construction.
func GoodSlice(names []string, b *strings.Builder) {
	for _, name := range names {
		b.WriteString(name)
	}
}

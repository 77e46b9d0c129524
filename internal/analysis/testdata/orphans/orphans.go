// Package main is the orphan contract's fixture: one function reached
// by each root rule and by each call-graph case, and planted orphans,
// each marked by a want comment.
package main

import (
	"fmt"
	"os"
)

func main() {
	var b box[int]
	fmt.Println(b.get()) // a method of a generic type, on an instantiation
	f := addressTaken
	f()
	var s sink = impl{}
	put := s.put // an interface method value
	put(1)
	wrap{impl2{}}.run()
	fmt.Fprintln(os.Stdout, label{}, table["a"](), computed)
}

func init() { fromInit() }

func fromInit() {}

func addressTaken() {}

// Package-level initializers: a reference and a call.
var table = map[string]func() int{"a": fromTable}

var computed = initCall()

func fromTable() int { return 1 }

func initCall() int { return 2 }

type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

func (b *box[T]) unusedGeneric() T { return b.v } // want `main\.\(\*box\)\.unusedGeneric`

type sink interface{ put(int) }

type impl struct{}

func (impl) put(int) {}

func (impl) unusedMethod() {} // want `main\.\(impl\)\.unusedMethod`

type impl2 struct{}

func (impl2) put(int) {}

// wrap's run calls put promoted through the embedded interface.
type wrap struct{ sink }

func (w wrap) run() { w.put(2) }

// label implements fmt.Stringer: fmt calls String, nothing here does.
type label struct{}

func (label) String() string { return "label" }

// notStringer's String has the name but not the signature of
// fmt.Stringer's, so no stdlib call reaches it.
type notStringer struct{}

func (notStringer) String(verbose bool) string { return "" } // want `main\.\(notStringer\)\.String`

func unused() { // want `main\.unused`
	var b box[string]
	b.onlyFromOrphan()
}

// onlyFromOrphan is called, but only from an orphan: a call is no
// value use, so it is no root either.
func (b *box[T]) onlyFromOrphan() {} // want `main\.\(\*box\)\.onlyFromOrphan`
